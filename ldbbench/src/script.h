//===- ldbbench/src/script.h - seeded command scripts -----------*- C++ -*-===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed alone generates each scenario's script; the debugger sees
/// only the generated command lines. A script is plain text, written next
/// to the results, and a saved script replays exactly (`--script`).
///
/// Format: one pass per `pass` line, then that pass's lines. `#` lines are
/// comments (episode markers). In the interactive and timetravel
/// scenarios every other line is a debugger command line; a `setup `
/// prefix marks a command that belongs to set-up rather than to the
/// measured stream. In the attach scenario a line is `attach KIND TARGET
/// LINES SLOT`: KIND is cold, warm or shared, and SLOT names the debugger
/// instance (an Ldb) within the pass that performs it.
///
//===----------------------------------------------------------------------===//

#ifndef LDBBENCH_SCRIPT_H
#define LDBBENCH_SCRIPT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ldbbench {

enum class Scenario { Interactive, Attach, Timetravel };

const char *scenarioName(Scenario S);
bool scenarioByName(const std::string &Name, Scenario &Out);

/// Program size and target of the interactive and timetravel scenarios.
constexpr unsigned SessionLines = 13000;
constexpr const char *SessionTarget = "zmips";

/// The attach scenario's images: every size on every target.
extern const unsigned AttachSizes[3];
extern const char *const AttachTargets[4];

struct Script {
  Scenario Kind = Scenario::Interactive;
  uint64_t Seed = 0;
  std::vector<std::vector<std::string>> Passes;

  std::string text() const;
  static bool parse(const std::string &Text, Script &Out, std::string &Err);
};

/// Generates the script of \p S for \p Seed.
Script makeScript(Scenario S, uint64_t Seed);

} // namespace ldbbench

#endif // LDBBENCH_SCRIPT_H
