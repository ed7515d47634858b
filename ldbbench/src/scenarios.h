//===- ldbbench/src/scenarios.h - one pass of a scenario --------*- C++ -*-===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one pass of a scenario script in the calling process and reports
/// latencies, deterministic counts and oracle verdicts. The caller forks a
/// fresh process per pass, so every pass starts from a debugger that has
/// attached nothing yet (the process-wide fastload, LDBI and atom caches
/// are empty) and every pass of one script does identical work.
///
//===----------------------------------------------------------------------===//

#ifndef LDBBENCH_SCENARIOS_H
#define LDBBENCH_SCENARIOS_H

#include "bench.h"
#include "images.h"
#include "script.h"

#include <map>
#include <string>
#include <vector>

namespace ldbbench {

/// The prepared programs a pass may debug, keyed by "TARGET-LINES".
struct Inputs {
  std::map<std::string, Program> Programs;

  static std::string key(const std::string &Target, unsigned Lines) {
    return Target + "-" + std::to_string(Lines);
  }
  const Program *find(const std::string &Target, unsigned Lines) const {
    auto It = Programs.find(key(Target, Lines));
    return It == Programs.end() ? nullptr : &It->second;
  }
};

/// The interactive scenario's link: 1 ms each way, no jitter, 100 Mbit/s.
constexpr uint64_t WanLatencyNs = 1000000;
constexpr uint64_t WanBytesPerSec = 100000000 / 8;

struct PassOptions {
  /// Record spans around every command and layer call (the traced run).
  bool Trace = false;
  /// Interactive only: ride the zero-latency LocalLink instead of the
  /// WAN SimLink (the transcript oracle's replay).
  bool Local = false;
  /// When non-empty, the traced pass writes its spans here.
  std::string TraceFile;
  /// When non-empty, the pass writes its transcript here.
  std::string TranscriptFile;
};

PassResult runPass(Scenario S, const std::vector<std::string> &Lines,
                   const Inputs &In, const PassOptions &O);

} // namespace ldbbench

#endif // LDBBENCH_SCENARIOS_H
