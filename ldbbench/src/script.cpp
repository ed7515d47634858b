//===- ldbbench/src/script.cpp - seeded command scripts -------------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "script.h"

#include "images.h"

#include <algorithm>

using namespace ldbbench;

const unsigned ldbbench::AttachSizes[3] = {9000, 11000, 13000};
const char *const ldbbench::AttachTargets[4] = {"zmips", "zsparc", "z68k",
                                                "zvax"};

const char *ldbbench::scenarioName(Scenario S) {
  switch (S) {
  case Scenario::Interactive:
    return "interactive";
  case Scenario::Attach:
    return "attach";
  case Scenario::Timetravel:
    return "timetravel";
  }
  return "?";
}

bool ldbbench::scenarioByName(const std::string &Name, Scenario &Out) {
  for (Scenario S :
       {Scenario::Interactive, Scenario::Attach, Scenario::Timetravel})
    if (Name == scenarioName(S)) {
      Out = S;
      return true;
    }
  return false;
}

namespace {

/// splitmix64: the same stream for a seed on every platform and library.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
};

std::string work(unsigned K) { return "work" + std::to_string(K); }

/// Distinct passes in the interactive script; a run cycles through them.
constexpr unsigned InteractivePasses = 3;

/// Episodes per interactive pass.
constexpr unsigned InteractiveEpisodes = 40;

/// One interactive pass: episodes walk the procedures in call order.
/// main calls work0, work1, ... in turn and workK calls work(K-1), so a
/// breakpoint on workK first fires in main's call (n == 4) and then in
/// work(K+1)'s (n == 2); moving on by at least two procedures keeps every
/// next breakpoint ahead of the program. Steps stay within the 3..12 the
/// stopped procedure and its callees can absorb, so `finish` always has a
/// caller; after steps the script inspects only globals.
///
/// Every episode runs the same kinds of command, and the breakpoint
/// forms, step counts and expression forms cycle through all their
/// values, so every pass (and every seed) has the same command mix; the
/// seed picks the procedures, the phase of each cycle, and the values.
std::vector<std::string> interactivePass(Rng &R) {
  std::vector<unsigned> Lines = genProcLines(SessionLines);
  unsigned NProcs = genProcs(SessionLines);
  std::vector<std::string> Out;
  unsigned K = 1 + R.below(3);
  unsigned FormPhase = R.below(7), StepPhase = R.below(10),
           EvalPhase = R.below(3);
  int NextId = 1;
  for (unsigned E = 0; E < InteractiveEpisodes && K + 2 < NProcs; ++E) {
    Out.push_back("# episode " + std::to_string(E) + " " + work(K));
    int Id = NextId++;
    switch ((E + FormPhase) % 7) {
    case 0:
      Out.push_back("break " + work(K));
      break;
    case 1:
      // The procedure's first statement.
      Out.push_back("break " + std::string(GenFile) + ":" +
                    std::to_string(Lines[K] + 4));
      break;
    case 2:
      // The loop body: hit on the first iteration.
      Out.push_back("break " + std::string(GenFile) + ":" +
                    std::to_string(Lines[K] + 6));
      break;
    case 3:
      Out.push_back("break " + work(K) + " if n > 3");
      break;
    case 4:
      Out.push_back("break " + work(K) + " if seed > 0");
      break;
    case 5:
      Out.push_back("break " + work(K) + " if n == 2");
      break;
    default:
      Out.push_back("break " + work(K));
      Out.push_back("ignore " + std::to_string(Id) + " 1");
      break;
    }
    Out.push_back("info breakpoints");
    Out.push_back("continue");
    Out.push_back("where");
    Out.push_back("print n");
    Out.push_back("print seed");
    Out.push_back("print cache" + std::to_string(K));
    if (E % 2)
      Out.push_back("set total " + std::to_string(1000 + R.below(9000)));
    else
      Out.push_back("set seed " + std::to_string(R.below(500)));
    unsigned Steps = 3 + (E + StepPhase) % 10;
    for (unsigned S = 0; S < Steps; ++S)
      Out.push_back((S + E) % 3 ? "step" : "next");
    Out.push_back("where");
    Out.push_back("print total");
    Out.push_back("print pool");
    switch ((E + EvalPhase) % 3) {
    case 0:
      Out.push_back("eval total + " + std::to_string(R.below(100)));
      break;
    case 1:
      Out.push_back("eval pool[" + std::to_string(R.below(8)) +
                    "].count * 2");
      break;
    default:
      Out.push_back("eval total - pool[" + std::to_string(R.below(8)) +
                    "].count");
      break;
    }
    Out.push_back("finish");
    Out.push_back("where");
    Out.push_back("print total");
    Out.push_back("info breakpoints");
    Out.push_back("delete");
    K += 2 + R.below(4);
  }
  return Out;
}

/// Episodes in the timetravel pass, spread evenly over the whole run.
constexpr unsigned TimetravelEpisodes = 4;

/// The timetravel pass: recording starts at the entry stop (set-up); each
/// episode hops forward twice while recording, breaks in a later
/// procedure, steps into its body, reverses twice and steps forward
/// again. The first forward checkpoint after a restore is a full keyframe,
/// so of an episode's three recording continues one is dear and two are
/// cheap. A reverse command's cost is its replay distance from the
/// checkpoint below it and its kind (reverse-continue is cheap), so the
/// episodes sit at fixed, evenly spaced procedures, each takes a fixed
/// reverse pair after a fixed number of steps, and the seed picks only
/// the forward steps after the pair: every seed reverses over the same
/// replay distances. The script has this one pass, so that every run
/// repeats it, which a command's best-of-repeats latency needs. Each
/// reverse pair stays behind the episode's own breakpoint stop or goes
/// just before the procedure's entry, so no reverse command falls back to
/// the start of the recording.
std::vector<std::string> timetravelPass(Rng &R) {
  unsigned NProcs = genProcs(SessionLines);
  std::vector<std::string> Out;
  Out.push_back("setup record");
  unsigned Span = (NProcs - 8) / (TimetravelEpisodes + 1);
  for (unsigned E = 0; E < TimetravelEpisodes; ++E) {
    unsigned K = (E + 1) * Span;
    Out.push_back("# episode " + std::to_string(E) + " " + work(K));
    for (unsigned Hop : {2u, 1u}) {
      Out.push_back("break " + work(K - Hop * Span / 3));
      Out.push_back("continue");
      Out.push_back("delete");
    }
    Out.push_back("break " + work(K));
    Out.push_back("continue");
    // Stops 1..F are all inside workK(4), which has more than 14.
    unsigned F = 3 + E % 2;
    for (unsigned S = 0; S < F; ++S)
      Out.push_back("step");
    switch (E % 4) {
    case 0: // back to this episode's breakpoint, then into main
      Out.push_back("reverse-continue");
      Out.push_back("reverse-step");
      break;
    case 1: // stop F-1, then out before the call
      Out.push_back("reverse-step");
      Out.push_back("reverse-finish");
      break;
    case 2: // stop F-1, then F-2 >= 1
      Out.push_back("reverse-next");
      Out.push_back("reverse-step");
      break;
    default: // stop F-1, then F-2 >= 1
      Out.push_back("reverse-step");
      Out.push_back("reverse-next");
      break;
    }
    unsigned Fwd = 1 + R.below(3);
    for (unsigned S = 0; S < Fwd; ++S)
      Out.push_back("step");
    Out.push_back("delete");
  }
  return Out;
}

/// Attach passes, each one fresh debugger process. The four passes split
/// the twelve images three ways, so every run of
/// four passes attaches every image cold exactly once, and each pass holds
/// one image of each size. A pass starts each of its images once cold,
/// three times warm (a fresh Ldb replaces the image's slot; the first of
/// these is the image's first re-attach in the process) and once shared
/// (another session in the slot's Ldb, which holds the image), in a
/// seeded interleaving that keeps each image's cold start first.
constexpr unsigned AttachPasses = 4;
constexpr unsigned ImagesPerAttachPass = 3;

std::vector<std::vector<std::string>> attachPasses(Rng &R) {
  // Pass P attaches one image of each size; which target each size gets
  // is a seeded permutation per size.
  std::vector<std::string> All(AttachPasses * ImagesPerAttachPass);
  for (unsigned Size = 0; Size < ImagesPerAttachPass; ++Size) {
    std::vector<unsigned> Perm = {0, 1, 2, 3};
    for (size_t K = Perm.size(); K > 1; --K)
      std::swap(Perm[K - 1], Perm[R.below(static_cast<unsigned>(K))]);
    for (unsigned P = 0; P < AttachPasses; ++P)
      All[P * ImagesPerAttachPass + Size] =
          std::string(AttachTargets[Perm[P]]) + " " +
          std::to_string(AttachSizes[Size]);
  }
  std::vector<std::vector<std::string>> Passes;
  for (unsigned P = 0; P < AttachPasses; ++P) {
    std::vector<std::vector<std::string>> Todo(ImagesPerAttachPass);
    for (unsigned I = 0; I < ImagesPerAttachPass; ++I) {
      std::string Where = All[P * ImagesPerAttachPass + I] + " d" +
                          std::to_string(I);
      std::vector<std::string> Later = {"warm", "warm", "warm", "shared"};
      for (size_t K = Later.size(); K > 1; --K)
        std::swap(Later[K - 1], Later[R.below(static_cast<unsigned>(K))]);
      // Reversed: the cold start is popped first.
      for (auto It = Later.rbegin(); It != Later.rend(); ++It)
        Todo[I].push_back("attach " + *It + " " + Where);
      Todo[I].push_back("attach cold " + Where);
    }
    std::vector<std::string> Out;
    for (;;) {
      std::vector<unsigned> Left;
      for (unsigned I = 0; I < ImagesPerAttachPass; ++I)
        if (!Todo[I].empty())
          Left.push_back(I);
      if (Left.empty())
        break;
      unsigned I = Left[R.below(static_cast<unsigned>(Left.size()))];
      Out.push_back(Todo[I].back());
      Todo[I].pop_back();
    }
    Passes.push_back(std::move(Out));
  }
  return Passes;
}

} // namespace

Script ldbbench::makeScript(Scenario S, uint64_t Seed) {
  Script Out;
  Out.Kind = S;
  Out.Seed = Seed;
  // Each scenario draws from its own stream of the seed.
  Rng R(Seed * 3 + static_cast<uint64_t>(S) + 1);
  switch (S) {
  case Scenario::Interactive:
    for (unsigned P = 0; P < InteractivePasses; ++P)
      Out.Passes.push_back(interactivePass(R));
    break;
  case Scenario::Timetravel:
    Out.Passes.push_back(timetravelPass(R));
    break;
  case Scenario::Attach:
    Out.Passes = attachPasses(R);
    break;
  }
  return Out;
}

std::string Script::text() const {
  std::string Out = std::string("# ldbbench script: scenario ") +
                    scenarioName(Kind) + " seed " + std::to_string(Seed) +
                    "\n";
  for (const std::vector<std::string> &P : Passes) {
    Out += "pass\n";
    for (const std::string &L : P)
      Out += L + "\n";
  }
  return Out;
}

bool Script::parse(const std::string &Text, Script &Out, std::string &Err) {
  Out.Passes.clear();
  size_t Pos = 0;
  bool Header = false;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    std::string Line =
        Text.substr(Pos, End == std::string::npos ? std::string::npos
                                                  : End - Pos);
    Pos = End == std::string::npos ? Text.size() : End + 1;
    const std::string Tag = "# ldbbench script: scenario ";
    if (!Header && Line.compare(0, Tag.size(), Tag) == 0) {
      std::string Rest = Line.substr(Tag.size());
      size_t Sp = Rest.find(" seed ");
      if (Sp == std::string::npos ||
          !scenarioByName(Rest.substr(0, Sp), Out.Kind)) {
        Err = "bad script header";
        return false;
      }
      Out.Seed = std::stoull(Rest.substr(Sp + 6));
      Header = true;
      continue;
    }
    if (Line == "pass") {
      Out.Passes.emplace_back();
      continue;
    }
    if (Line.empty())
      continue;
    if (Out.Passes.empty()) {
      Err = "script line before the first pass: " + Line;
      return false;
    }
    Out.Passes.back().push_back(Line);
  }
  if (!Header || Out.Passes.empty()) {
    Err = "not an ldbbench script";
    return false;
  }
  return true;
}
