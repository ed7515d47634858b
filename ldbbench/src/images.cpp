//===- ldbbench/src/images.cpp - benchmark input programs -----------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "images.h"

#include "lcc/driver.h"

#include <cstdio>
#include <cstring>

using namespace ldb;
using namespace ldbbench;

std::string ldbbench::genSource(unsigned Lines) {
  unsigned NFuncs = genProcs(Lines);
  std::string Out;
  Out += "struct rec { int tag; int count; double weight; };\n";
  Out += "struct rec pool[8];\n";
  Out += "int total;\n";
  Out += "double scale = 1.5;\n";
  for (unsigned F = 0; F < NFuncs; ++F) {
    std::string N = std::to_string(F);
    Out += "int work" + N + "(int n, int seed) {\n";
    Out += "  static int cache" + N + "[12];\n";
    Out += "  int acc;\n";
    Out += "  int i;\n";
    Out += "  acc = seed % 17 + " + N + ";\n";
    Out += "  for (i = 0; i < n; i++) {\n";
    Out += "    cache" + N + "[i % 12] = acc + i;\n";
    Out += "    acc = acc + cache" + N + "[(i + 5) % 12] % 9;\n";
    Out += "  }\n";
    Out += "  { int hi;\n";
    Out += "    hi = acc >> 3;\n";
    Out += "    if (hi > 100) acc = hi - 100;\n";
    Out += "  }\n";
    Out += "  pool[" + std::to_string(F % 8) + "].count = acc;\n";
    Out += "  total = total + acc;\n";
    if (F > 0)
      Out += "  if (n > 2) acc = acc + work" + std::to_string(F - 1) +
             "(n - 2, seed) % 5;\n";
    Out += "  return acc;\n";
    Out += "}\n";
  }
  Out += "int main() {\n";
  Out += "  int sum;\n";
  Out += "  sum = 0;\n";
  for (unsigned F = 0; F < NFuncs; ++F)
    Out += "  sum = sum + work" + std::to_string(F) + "(4, " +
           std::to_string(F * 3 + 1) + ") % 101;\n";
  Out += "  return sum % 97;\n";
  Out += "}\n";
  return Out;
}

unsigned ldbbench::genProcs(unsigned Lines) {
  return Lines / 19 ? Lines / 19 : 1;
}

std::vector<unsigned> ldbbench::genProcLines(unsigned Lines) {
  std::string Src = genSource(Lines);
  std::vector<unsigned> Out;
  unsigned Line = 1;
  for (size_t Pos = 0; Pos < Src.size();) {
    size_t End = Src.find('\n', Pos);
    if (Src.compare(Pos, 8, "int work") == 0)
      Out.push_back(Line);
    ++Line;
    Pos = End == std::string::npos ? Src.size() : End + 1;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The on-disk program cache: a flat little-endian file per (target, size)
// holding what loading and connecting need. A file that fails to parse is
// reported, never trusted.
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[4] = {'L', 'B', 'P', '1'};

std::string pathFor(const std::string &Dir, const std::string &Target,
                    unsigned Lines) {
  return Dir + "/" + Target + "-gen" + std::to_string(Lines) + ".prog";
}

void put32(std::string &Out, uint32_t V) {
  for (int K = 0; K < 4; ++K)
    Out.push_back(static_cast<char>((V >> (8 * K)) & 0xFF));
}

void putBytes(std::string &Out, const void *P, size_t N) {
  put32(Out, static_cast<uint32_t>(N));
  Out.append(static_cast<const char *>(P), N);
}

struct Reader {
  const std::string &In;
  size_t Pos = 0;
  bool Ok = true;

  uint32_t get32() {
    if (!Ok || In.size() - Pos < 4) {
      Ok = false;
      return 0;
    }
    uint32_t V = 0;
    for (int K = 0; K < 4; ++K)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(In[Pos + K])) << (8 * K);
    Pos += 4;
    return V;
  }
  std::string getStr() {
    uint32_t N = get32();
    if (!Ok || In.size() - Pos < N) {
      Ok = false;
      return std::string();
    }
    std::string S = In.substr(Pos, N);
    Pos += N;
    return S;
  }
};

bool readFile(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[1 << 16];
  size_t N;
  Out.clear();
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  return Ok;
}

} // namespace

Error ldbbench::prepareProgram(const std::string &Dir,
                               const std::string &Target, unsigned Lines) {
  std::string Path = pathFor(Dir, Target, Lines);
  std::string Existing;
  if (readFile(Path, Existing) && loadProgram(Dir, Target, Lines))
    return Error::success();
  const target::TargetDesc *Desc = target::targetByName(Target);
  if (!Desc)
    return Error::failure("unknown target " + Target);
  auto C = lcc::compileAndLink({{GenFile, genSource(Lines)}}, *Desc,
                               lcc::CompileOptions());
  if (!C)
    return C.takeError();
  const lcc::Image &Img = (*C)->Img;
  std::string Out(Magic, 4);
  put32(Out, Lines);
  put32(Out, Img.Entry);
  put32(Out, Img.TextBase);
  put32(Out, Img.DataBase);
  put32(Out, Img.RptAddr);
  putBytes(Out, Img.Text.data(), Img.Text.size());
  putBytes(Out, Img.Data.data(), Img.Data.size());
  put32(Out, static_cast<uint32_t>(Img.Symbols.size()));
  for (const lcc::ImageSymbol &S : Img.Symbols) {
    putBytes(Out, S.Name.data(), S.Name.size());
    put32(Out, S.Addr);
    put32(Out, static_cast<uint8_t>(S.Kind));
  }
  putBytes(Out, (*C)->PsSymtab.data(), (*C)->PsSymtab.size());
  putBytes(Out, (*C)->LoaderTable.data(), (*C)->LoaderTable.size());

  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return Error::failure("cannot write " + Tmp);
  bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Error::failure("cannot write " + Path);
  }
  return Error::success();
}

Expected<Program> ldbbench::loadProgram(const std::string &Dir,
                                        const std::string &Target,
                                        unsigned Lines) {
  std::string Path = pathFor(Dir, Target, Lines);
  std::string Raw;
  const target::TargetDesc *Desc = target::targetByName(Target);
  if (!Desc)
    return Error::failure("unknown target " + Target);
  if (!readFile(Path, Raw) || Raw.size() < 4 ||
      std::memcmp(Raw.data(), Magic, 4) != 0)
    return Error::failure("no prepared program " + Path);
  Reader R{Raw, 4};
  Program P;
  P.Target = Target;
  P.Lines = R.get32();
  lcc::Image &Img = P.Img;
  Img.Desc = Desc;
  Img.Entry = R.get32();
  Img.TextBase = R.get32();
  Img.DataBase = R.get32();
  Img.RptAddr = R.get32();
  std::string Text = R.getStr(), Data = R.getStr();
  Img.Text.assign(Text.begin(), Text.end());
  Img.Data.assign(Data.begin(), Data.end());
  uint32_t NSym = R.get32();
  if (!R.Ok || NSym > Raw.size())
    return Error::failure("damaged program " + Path);
  Img.Symbols.resize(NSym);
  for (lcc::ImageSymbol &S : Img.Symbols) {
    S.Name = R.getStr();
    S.Addr = R.get32();
    S.Kind = static_cast<char>(R.get32());
  }
  P.PsSymtab = R.getStr();
  P.LoaderTable = R.getStr();
  if (!R.Ok || R.Pos != Raw.size() || P.Lines != Lines)
    return Error::failure("damaged program " + Path);
  return P;
}
