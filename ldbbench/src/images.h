//===- ldbbench/src/images.h - benchmark input programs ---------*- C++ -*-===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs the benchmark debugs. genSource(N) is the repository's
/// gen:N synthetic program (N/19 procedures work0..workK, each with a
/// static array cacheK, locals, a loop, writes to the globals `total`
/// and `pool`, and a call to its predecessor), reproduced here so the
/// benchmark's inputs do not move when other benches change. Compiling
/// is input generation, not debugger work: `ldbbench prepare` compiles
/// every image once into an on-disk cache, and measured runs only read
/// it back.
///
//===----------------------------------------------------------------------===//

#ifndef LDBBENCH_IMAGES_H
#define LDBBENCH_IMAGES_H

#include "lcc/linker.h"
#include "support/error.h"
#include "target/targetdesc.h"

#include <string>
#include <vector>

namespace ldbbench {

/// Source file name the programs are compiled under (what `break
/// FILE:LINE` names).
constexpr const char *GenFile = "gen.c";

/// The gen:\p Lines program text.
std::string genSource(unsigned Lines);

/// Number of work procedures in gen:\p Lines.
unsigned genProcs(unsigned Lines);

/// The 1-based line of `int workK(` in gen:\p Lines, indexed by K. The
/// statement at offset 10 from it is `hi = acc >> 3;`, at 13 `pool[..]
/// .count = acc;` and at 14 `total = total + acc;`.
std::vector<unsigned> genProcLines(unsigned Lines);

/// One compiled program: the linked image and the two debug texts a
/// connect reads.
struct Program {
  std::string Target;
  unsigned Lines = 0;
  ldb::lcc::Image Img;
  std::string PsSymtab;
  std::string LoaderTable;

  /// Address of the global or static \p Name, or 0.
  uint32_t symbol(const std::string &Name) const {
    return Img.symbolAddr(Name);
  }
};

/// Compiles gen:\p Lines for \p Target unless \p Dir already holds it.
ldb::Error prepareProgram(const std::string &Dir, const std::string &Target,
                          unsigned Lines);

/// Reads a program prepareProgram stored; fails when it is missing or
/// damaged (run `ldbbench prepare`).
ldb::Expected<Program> loadProgram(const std::string &Dir,
                                   const std::string &Target, unsigned Lines);

} // namespace ldbbench

#endif // LDBBENCH_IMAGES_H
