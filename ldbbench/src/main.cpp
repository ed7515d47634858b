//===- ldbbench/src/main.cpp - the benchmark program ----------------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   ldbbench prepare --cache DIR
///   ldbbench run --workload W --seed N --seconds S --trace 0|1
///                --cache DIR --out DIR [--script FILE]
///
/// `run` is one simulated user in a closed loop: one thread, the next
/// command only after the previous one returns, no think time. Every pass
/// runs in a fresh forked process, so each starts from a debugger that
/// has attached nothing. Every run measures all three scenarios, because
/// every run reports every end-to-end metric; the workload names the
/// scenario that gets the rest of the time after one companion pass of
/// each of the other two. The last line of standard output is the result
/// object: correct, attempted, failed, metrics.
///
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "images.h"
#include "scenarios.h"
#include "script.h"

#include "support/strings.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifndef LDBBENCH_BUILD_TYPE
#define LDBBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LDBBENCH_COMPILER
#define LDBBENCH_COMPILER "unknown"
#endif

extern char **environ;

using namespace ldb;
using namespace ldbbench;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "ldbbench: %s\n", Msg.c_str());
  std::exit(2);
}

/// The program's own knobs change what it does; numbers taken with any
/// of them set would not describe the default program.
void refuseKnobs() {
  std::vector<std::string> Set;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "LDB_", 4) == 0)
      Set.push_back(std::string(*E).substr(0, std::strcspn(*E, "=")));
  if (!Set.empty()) {
    std::string All;
    for (const std::string &S : Set)
      All += " " + S;
    die("refusing to measure with LDB_* knobs set:" + All);
  }
}

struct Args {
  std::string Mode, Workload = "interactive", Cache, Out, ScriptFile;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
};

Args parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: ldbbench prepare|run [options]");
  Args A;
  A.Mode = Argv[1];
  for (int K = 2; K < Argc; ++K) {
    std::string Flag = Argv[K];
    if (K + 1 >= Argc)
      die("missing value for " + Flag);
    std::string V = Argv[++K];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--cache")
      A.Cache = V;
    else if (Flag == "--out")
      A.Out = V;
    else if (Flag == "--script")
      A.ScriptFile = V;
    else
      die("unknown option " + Flag);
  }
  if (A.Cache.empty())
    die("--cache DIR is required");
  return A;
}

/// Every (target, size) any scenario debugs.
std::vector<std::pair<std::string, unsigned>> allPrograms() {
  std::vector<std::pair<std::string, unsigned>> Out;
  for (const char *T : AttachTargets)
    for (unsigned L : AttachSizes)
      Out.emplace_back(T, L);
  return Out;
}

//===----------------------------------------------------------------------===//
// Passes in forked processes
//===----------------------------------------------------------------------===//

struct PassRun {
  Scenario Kind;
  size_t Script = 0; ///< which pass of the scenario's script
  bool Traced = false;
  PassResult R;
  double MaxRssMb = 0;
};

/// Runs one pass in a child process and collects its report.
PassRun forkPass(Scenario S, const Script &Sc, size_t Which,
                 const Inputs &In, const PassOptions &O) {
  PassRun Run;
  Run.Kind = S;
  Run.Script = Which;
  Run.Traced = O.Trace;
  int Fd[2];
  if (pipe(Fd) != 0)
    die("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0)
    die("fork failed");
  if (Pid == 0) {
    close(Fd[0]);
    PassResult R = runPass(S, Sc.Passes[Which], In, O);
    std::string Text = R.serialize();
    for (size_t Done = 0; Done < Text.size();) {
      ssize_t N = write(Fd[1], Text.data() + Done, Text.size() - Done);
      if (N <= 0)
        _exit(3);
      Done += static_cast<size_t>(N);
    }
    close(Fd[1]);
    _exit(0);
  }
  close(Fd[1]);
  std::string Text;
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = read(Fd[0], Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Text.append(Buf, static_cast<size_t>(N));
  }
  close(Fd[0]);
  int Status = 0;
  struct rusage Use;
  std::memset(&Use, 0, sizeof(Use));
  if (wait4(Pid, &Status, 0, &Use) != Pid)
    die("wait failed");
  Run.MaxRssMb = double(Use.ru_maxrss) / 1024.0;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      !PassResult::parse(Text, Run.R)) {
    Run.R = PassResult();
    Run.R.Attempted = 1;
    Run.R.fail(std::string(scenarioName(S)) + " pass died (status " +
               std::to_string(Status) + ")");
  }
  return Run;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated percentile (\p Q in [0, 1]).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

struct Metric {
  std::string Name, Unit;
  double Value = NAN;
  size_t Samples = 0;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.4f", V);
  return Buf;
}

double ratio(double A, double B) { return B != 0 ? A / B : 0.0; }

/// An identity of the running binary, so counts from an older build are
/// never compared against this one.
std::string binaryId() {
  struct stat St;
  if (stat("/proc/self/exe", &St) != 0)
    return "unknown";
  return std::to_string(St.st_size) + "-" + std::to_string(St.st_mtime);
}

} // namespace

//===----------------------------------------------------------------------===//
// prepare
//===----------------------------------------------------------------------===//

static int prepare(const Args &A) {
  ::mkdir(A.Cache.c_str(), 0755);
  for (const auto &[T, L] : allPrograms()) {
    if (Error E = prepareProgram(A.Cache, T, L)) {
      std::fprintf(stderr, "ldbbench: preparing %s gen:%u: %s\n", T.c_str(),
                   L, E.message().c_str());
      return 1;
    }
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// run
//===----------------------------------------------------------------------===//

static int run(const Args &A) {
  Scenario Focus;
  if (!scenarioByName(A.Workload, Focus))
    die("unknown workload " + A.Workload +
        " (interactive, attach, timetravel)");
  if (A.Seconds < 1 || A.Seconds > 600)
    die("--seconds must be 1..600");
  std::string Out = A.Out.empty() ? A.Cache + "/results" : A.Out;
  ::mkdir(Out.c_str(), 0755);

  Inputs In;
  for (const auto &[T, L] : allPrograms()) {
    Expected<Program> P = loadProgram(A.Cache, T, L);
    if (!P)
      die(P.message() + " (run `ldbbench prepare` first)");
    In.Programs.emplace(Inputs::key(T, L), P.take());
  }

  // Scripts: generated from the seed, or the focus one replayed from a
  // saved file. Each is written next to the results.
  std::map<Scenario, Script> Scripts;
  for (Scenario S :
       {Scenario::Interactive, Scenario::Attach, Scenario::Timetravel})
    Scripts[S] = makeScript(S, A.Seed);
  if (!A.ScriptFile.empty()) {
    std::string Text, Err;
    Script Saved;
    if (!readFile(A.ScriptFile, Text) || !Script::parse(Text, Saved, Err))
      die("cannot replay " + A.ScriptFile + ": " + Err);
    Scripts[Saved.Kind] = Saved;
  }
  std::string SeedTag = "-seed" + std::to_string(A.Seed);
  for (const auto &[S, Sc] : Scripts)
    writeFile(Out + "/script-" + scenarioName(S) + SeedTag + ".txt",
              Sc.text());

  // The schedule is fixed work, so every run of a workload measures the
  // same passes: ceil(seconds / 6) cycles, each running every scenario,
  // the named one more. A unit is one interactive pass, one attach round
  // (the four passes that attach every image cold once) or one timetravel
  // pass. A cycle runs one attach and one timetravel unit and six
  // interactive units (an interactive pass takes about 0.15 s of host
  // time: its link time is virtual), twice as many of the named one. So
  // every run repeats every script pass, which the best-of-repeats
  // latencies below need. Within a cycle each scenario's passes sit at
  // even spacing among the others, so each scenario's repeats fall at
  // different moments of the run. A traced run traces every unit but the
  // named scenario's first in each cycle, which prices the tracing itself.
  std::vector<PassRun> Runs;
  std::map<Scenario, std::pair<unsigned, double>> PassTime; // count, seconds
  std::map<Scenario, size_t> Next;
  std::map<Scenario, bool> TraceWritten;
  auto runOne = [&](Scenario S, bool Traced) {
    const Script &Sc = Scripts[S];
    size_t Which = Next[S]++ % Sc.Passes.size();
    PassOptions O;
    O.Trace = Traced;
    if (Traced && !TraceWritten[S]) {
      O.TraceFile = Out + "/trace-" + scenarioName(S) + ".json";
      TraceWritten[S] = true;
    }
    if (Next[S] == 1)
      O.TranscriptFile =
          Out + "/transcript-" + scenarioName(S) + SeedTag + ".txt";
    uint64_t P0 = nowNs();
    Runs.push_back(forkPass(S, Sc, Which, In, O));
    PassTime[S].first += 1;
    PassTime[S].second += double(nowNs() - P0) / 1e9;
    // One line per pass on stderr: where the time of a run went.
    std::string Line = std::string("pass ") + scenarioName(S) + " #" +
                       std::to_string(Which) + (Traced ? " traced" : "") +
                       " " + fmt(double(nowNs() - P0) / 1e9) + " s";
    for (const auto &[K, V] : Runs.back().R.Samples)
      Line += " " + K + "_p50=" + fmt(percentile(V, 0.5));
    std::fprintf(stderr, "%s\n", Line.c_str());
  };
  auto unitPasses = [&](Scenario S) {
    return S == Scenario::Attach ? unsigned(Scripts[S].Passes.size()) : 1u;
  };
  std::vector<std::pair<double, Scenario>> Cycle; // position in cycle, pass
  for (Scenario S :
       {Scenario::Interactive, Scenario::Attach, Scenario::Timetravel}) {
    unsigned N = (S == Scenario::Interactive ? 6 : 1) * (S == Focus ? 2 : 1) *
                 unitPasses(S);
    for (unsigned K = 0; K < N; ++K)
      Cycle.emplace_back((K + 0.5) / N, S);
  }
  std::stable_sort(Cycle.begin(), Cycle.end(), [](const auto &X, const auto &Y) {
    return X.first < Y.first;
  });
  // One discarded pass first, so the first measured pass does not pay for
  // a cold machine (page cache, CPU clock).
  forkPass(Scenario::Interactive, Scripts[Scenario::Interactive], 0, In,
           PassOptions());
  unsigned Cycles = (A.Seconds + 5) / 6;
  uint64_t T0 = nowNs();
  for (unsigned C = 0; C < Cycles; ++C) {
    std::map<Scenario, unsigned> Done;
    for (const auto &[Pos, S] : Cycle) {
      unsigned K = Done[S]++;
      runOne(S, A.Trace && !(S == Focus && K < unitPasses(S)));
    }
  }
  double Measured = double(nowNs() - T0) / 1e9;

  // The transcript oracle: the interactive script replayed over the
  // zero-latency link must print exactly what it printed over the WAN.
  PassOptions LocalOpt;
  LocalOpt.Local = true;
  PassRun Local = forkPass(Scenario::Interactive, Scripts[Scenario::Interactive],
                           0, In, LocalOpt);

  // Verdicts.
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
  std::map<std::pair<Scenario, size_t>, const PassRun *> FirstOf;
  for (const PassRun &R : Runs) {
    Attempted += R.R.Attempted;
    Failed += R.R.Failed;
    for (const std::string &E : R.R.Errors)
      Problems.push_back(std::string(scenarioName(R.Kind)) + ": " + E);
    auto Key = std::make_pair(R.Kind, R.Script);
    auto It = FirstOf.find(Key);
    if (It == FirstOf.end()) {
      FirstOf[Key] = &R;
      continue;
    }
    if (It->second->R.Counts != R.R.Counts)
      Problems.push_back(std::string(scenarioName(R.Kind)) +
                         ": deterministic counts differ between passes of "
                         "one script");
    if (It->second->R.Transcript != R.R.Transcript)
      Problems.push_back(std::string(scenarioName(R.Kind)) +
                         ": transcripts differ between passes of one script");
  }
  Attempted += Local.R.Attempted;
  Failed += Local.R.Failed;
  for (const PassRun &R : Runs)
    if (R.Kind == Scenario::Interactive && R.Script == 0 &&
        R.R.Transcript != Local.R.Transcript) {
      Problems.push_back("interactive: the WAN transcript differs from the "
                         "LocalLink replay");
      ++Failed;
      break;
    }

  // Counts across runs of one seed: every script pass's counts are saved
  // by the first run of this binary that executes it, and every later run
  // must reproduce them exactly. One line per count: SCENARIO PASS KEY V.
  std::string CountsPath = Out + "/counts-seed" + std::to_string(A.Seed) +
                           ".txt";
  std::string Binary = "binary " + binaryId();
  std::map<std::string, std::string> Pinned;
  std::string Saved;
  if (readFile(CountsPath, Saved) &&
      Saved.compare(0, Binary.size() + 1, Binary + "\n") == 0)
    for (const std::string &L : splitOn(Saved.substr(Binary.size() + 1), '\n'))
      if (size_t Sp = L.rfind(' '); Sp != std::string::npos)
        Pinned[L.substr(0, Sp)] = L.substr(Sp + 1);
  bool CountsRepeat = true;
  for (const auto &[Key, R] : FirstOf)
    for (const auto &[Name, V] : R->R.Counts) {
      std::string Id = std::string(scenarioName(Key.first)) + " " +
                       std::to_string(Key.second) + " " + Name;
      auto [It, New] = Pinned.emplace(Id, jsonNumber(V));
      if (!New && It->second != jsonNumber(V)) {
        CountsRepeat = false;
        Problems.push_back("deterministic count " + Id + " is " +
                           jsonNumber(V) + ", an earlier run of this seed "
                           "gave " + It->second);
      }
    }
  std::string Counts = Binary + "\n";
  for (const auto &[Id, V] : Pinned)
    Counts += Id + " " + V + "\n";
  writeFile(CountsPath, Counts);

  // End-to-end metrics (traced passes excluded: they carry the spans'
  // own cost). Every pass of one script does the same work command for
  // command (the counts and transcripts checked above show it), so a
  // command's latency sample is its fastest over the run's passes of that
  // script. The shared host's speed switches between levels about 1.5x
  // apart for seconds at a time; a plain pooled median moves with the
  // share of the run spent slow, while the fastest repeat is the command's
  // own cost.
  std::map<std::pair<Scenario, size_t>,
           std::map<std::string, std::vector<double>>>
      Best;
  double FocusRss = 0;
  std::vector<double> Setup;
  for (const PassRun &R : Runs) {
    if (R.Traced)
      continue;
    std::map<std::string, std::vector<double>> &B = Best[{R.Kind, R.Script}];
    for (const auto &[K, V] : R.R.Samples) {
      if (K == "setup")
        continue;
      auto [It, New] = B.emplace(K, V);
      if (New)
        continue;
      if (It->second.size() != V.size()) {
        Problems.push_back(std::string(scenarioName(R.Kind)) + ": " + K +
                           " sample counts differ between passes of one "
                           "script");
        continue;
      }
      for (size_t I = 0; I < V.size(); ++I)
        It->second[I] = std::min(It->second[I], V[I]);
    }
    if (R.Kind == Focus) {
      FocusRss = std::max(FocusRss, R.MaxRssMb);
      auto It = R.R.Samples.find("setup");
      if (It != R.R.Samples.end())
        Setup.insert(Setup.end(), It->second.begin(), It->second.end());
    }
  }
  std::map<std::string, std::vector<double>> Pool;
  for (const auto &[Key, Samples] : Best)
    for (const auto &[K, V] : Samples)
      Pool[K].insert(Pool[K].end(), V.begin(), V.end());
  std::string SampleText;
  for (const auto &[K, V] : Pool) {
    SampleText += K;
    for (double X : V)
      SampleText += " " + jsonNumber(X);
    SampleText += "\n";
  }
  writeFile(Out + "/samples-" + A.Workload + "-seed" + std::to_string(A.Seed) +
                ".txt",
            SampleText);
  auto P = [&](const char *Key, double Q) { return percentile(Pool[Key], Q); };
  std::vector<Metric> E2E = {
      {"cmd_p50_ms", "ms", P("cmd", 0.5), Pool["cmd"].size()},
      {"cmd_p99_ms", "ms", P("cmd", 0.99), Pool["cmd"].size()},
      {"step_p50_ms", "ms", P("step", 0.5), Pool["step"].size()},
      {"inspect_p50_ms", "ms", P("inspect", 0.5), Pool["inspect"].size()},
      {"attach_cold_p50_ms", "ms", P("attach_cold", 0.5),
       Pool["attach_cold"].size()},
      {"attach_warm_p50_ms", "ms", P("attach_warm", 0.5),
       Pool["attach_warm"].size()},
      {"attach_warm_p90_ms", "ms", P("attach_warm", 0.9),
       Pool["attach_warm"].size()},
      {"attach_shared_p50_ms", "ms", P("attach_shared", 0.5),
       Pool["attach_shared"].size()},
      {"rev_p50_ms", "ms", P("rev", 0.5), Pool["rev"].size()},
      {"rev_p90_ms", "ms", P("rev", 0.9), Pool["rev"].size()},
      {"rec_fwd_p50_ms", "ms", P("rec_fwd", 0.5), Pool["rec_fwd"].size()},
      {"setup_s", "s", percentile(Setup, 0.5), Setup.size()},
      {"peak_rss_mb", "MB", FocusRss, 1},
  };

  // Per-layer metrics from the traced passes.
  std::map<Scenario, std::map<std::string, double>> L;
  std::map<Scenario, double> TracedPasses;
  std::vector<double> TracedLat, PlainLat;
  const char *FocusKey = Focus == Scenario::Interactive ? "cmd"
                         : Focus == Scenario::Attach    ? "attach_cold"
                                                        : "rev";
  for (const PassRun &R : Runs) {
    if (R.Kind == Focus) {
      auto It = R.R.Samples.find(FocusKey);
      if (It != R.R.Samples.end())
        (R.Traced ? TracedLat : PlainLat)
            .insert((R.Traced ? TracedLat : PlainLat).end(),
                    It->second.begin(), It->second.end());
    }
    if (!R.Traced)
      continue;
    TracedPasses[R.Kind] += 1;
    for (const auto &[K, V] : R.R.Layer) {
      double &Slot = L[R.Kind][K];
      Slot = K.find("max_in_flight") != std::string::npos ? std::max(Slot, V)
                                                          : Slot + V;
    }
  }
  std::vector<Metric> Layers;
  if (A.Trace) {
    auto &I = L[Scenario::Interactive], &At = L[Scenario::Attach],
         &Tt = L[Scenario::Timetravel];
    double IP = std::max(1.0, TracedPasses[Scenario::Interactive]);
    double AP = std::max(1.0, TracedPasses[Scenario::Attach]);
    double TP = std::max(1.0, TracedPasses[Scenario::Timetravel]);
    auto Call = [](std::map<std::string, double> &M, const std::string &N) {
      return ratio(M["call." + N + "_ns"], M["call." + N + "_n"]) / 1e6;
    };
    double Hits = I["cmd.code_hits"] + I["cmd.data_hits"];
    double Misses = I["cmd.code_misses"] + I["cmd.data_misses"];
    Layers = {
        {"cli.self_ms", "ms", ratio(I["self.cli_ns"], I["cmd.n"]) / 1e6},
        {"exec.host_ms_per_step", "ms",
         ratio(I["step.exec_host_ns"], I["step.n"]) / 1e6},
        {"exec.temp_plants_per_step", "count",
         ratio(I["step.temp_plants"], I["step.n"])},
        {"exec.inner_steps_per_rev", "count",
         ratio(Tt["rev.steps"] + Tt["rev.nexts"] + Tt["rev.finishes"],
               Tt["rev.n"])},
        {"exec.seeks_per_rev", "count", ratio(Tt["rev.seeks"], Tt["rev.n"])},
        {"frame.backtrace_ms", "ms", Call(I, "Target::backtrace")},
        {"expr.print_ms", "ms", Call(I, "printVariable")},
        {"expr.eval_ms", "ms", Call(I, "evalExpression")},
        {"expr.cond_compile_ms", "ms",
         Call(I, "exec::setBreakpointCondition")},
        {"cache.hit_ratio", "ratio", ratio(Hits, Hits + Misses)},
        {"cache.code_hits", "count", I["cmd.code_hits"] / IP},
        {"cache.code_misses", "count", I["cmd.code_misses"] / IP},
        {"cache.data_hits", "count", I["cmd.data_hits"] / IP},
        {"cache.data_misses", "count", I["cmd.data_misses"] / IP},
        {"cache.misses_per_cmd", "count", ratio(Misses, I["cmd.n"])},
        {"client.rt_per_cmd", "count",
         ratio(I["cmd.round_trips"], I["cmd.n"])},
        {"client.rt_per_step", "count",
         ratio(I["step.round_trips"], I["step.n"])},
        {"client.posted_share", "ratio",
         ratio(I["cmd.posted"], I["cmd.msgs_sent"])},
        {"client.max_in_flight", "count", I["cmd.max_in_flight"]},
        {"client.rt_per_rev", "count",
         ratio(Tt["rev.round_trips"], Tt["rev.n"])},
        {"client.retries", "count", I["cmd.retries"] / IP},
        {"link.ms_per_cmd", "ms", ratio(I["cmd.link_ns"], I["cmd.n"]) / 1e6},
        {"link.wait_share", "ratio",
         ratio(I["cmd.link_ns"], I["cmd.latency_ns"])},
        {"link.kb_per_cmd", "kB",
         ratio(I["cmd.bytes_sent"] + I["cmd.bytes_received"], I["cmd.n"]) /
             1e3},
        {"link.kb_per_step", "kB",
         ratio(I["step.bytes_sent"] + I["step.bytes_received"],
               I["step.n"]) /
             1e3},
        {"nub.local_resumes_per_continue", "count",
         ratio(I["cont.nub_local_resumes"], I["cont.n"])},
        {"nub.restores_per_rev", "count",
         ratio(Tt["rev.restores"], Tt["rev.n"])},
        {"nub.pages_saved_per_ckpt", "count",
         ratio(Tt["ckpt.pages_saved"], Tt["ckpt.count"])},
        {"nub.ckpt_mb", "MB", Tt["ckpt.bytes"] / TP / 1e6},
        {"nub.connect_ms", "ms", Call(At, "Target::connect")},
        {"sim.instrs_per_rev", "count", ratio(Tt["rev.replayed"], Tt["rev.n"])},
        {"sim.instrs_per_fwd", "count", ratio(Tt["fwd.icount"], Tt["fwd.n"])},
        {"sim.mips", "MIPS", ratio(Tt["fwd.icount"] * 1e3, Tt["fwd.host_ns"])},
        {"ps.prelude_ms", "ms", Call(At, "Ldb::Ldb")},
        {"ps.finds_per_attach", "count",
         ratio(At["attach.dict_finds"], At["attach.n"])},
        {"ps.dict_probes_per_find", "count",
         ratio(At["attach.dict_probes"], At["attach.dict_finds"])},
        {"ps.fastload_hit_ratio", "ratio",
         ratio(At["attach.fastload_hits"],
               At["attach.fastload_hits"] + At["attach.fastload_misses"])},
        {"symtab.acquire_ms", "ms", Call(At, "ImageRepository::acquire")},
        {"symtab.blob_builds", "count", At["attach.blob_builds"] / AP},
        {"symtab.rss_mb_per_image", "MB",
         ratio(At["cold.rss_kb"], At["cold.n"]) / 1e3},
        {"symtab.probes_per_cmd", "count",
         ratio(I["cmd.blob_probes"], I["cmd.n"])},
        {"trace.overhead_ms", "ms",
         percentile(TracedLat, 0.5) - percentile(PlainLat, 0.5)},
    };
  }

  // The human-readable report, then the run record, then the result.
  std::string Record =
      "{\"workload\": \"" + A.Workload + "\", \"seed\": " +
      std::to_string(A.Seed) + ", \"seconds\": " + std::to_string(A.Seconds) +
      ", \"trace\": " + (A.Trace ? "1" : "0") +
      ", \"link\": {\"latency_ns_each_way\": " +
      std::to_string(WanLatencyNs) + ", \"jitter_ns\": 0, \"bytes_per_sec\": " +
      std::to_string(WanBytesPerSec) + "}, \"build_type\": \"" +
      LDBBENCH_BUILD_TYPE + "\", \"compiler\": \"" + LDBBENCH_COMPILER +
      "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"counts_repeat\": " + (CountsRepeat ? "true" : "false") + "}";
  std::printf("ldbbench: workload %s, seed %llu, %u s requested, %.2f s "
              "measured, %zu passes (+1 LocalLink replay)\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, Measured, Runs.size());
  std::printf("run record: %s\n", Record.c_str());
  for (const auto &[S, T] : PassTime)
    std::printf("passes: %s %u, %.2f s each\n", scenarioName(S), T.first,
                T.second / T.first);
  std::printf("%-34s %14s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric &M : E2E)
    std::printf("%-34s %14s  %-6s %zu\n", M.Name.c_str(),
                fmt(M.Value).c_str(), M.Unit.c_str(), M.Samples);
  std::printf("%-34s %14s  %-6s %llu/%llu\n", "error_rate",
              fmt(ratio(double(Failed), double(Attempted))).c_str(), "ratio",
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  if (A.Trace) {
    std::printf("\nper-layer (traced passes; self time = span minus child "
                "spans)\n");
    for (auto &[S, M] : L) {
      std::printf("  %s:", scenarioName(S));
      for (const char *Layer : {"cli", "exec", "frame", "expr", "symtab", "ps",
                                "nub"})
        std::printf(" %s %.1f ms", Layer,
                    M[std::string("self.") + Layer + "_ns"] / 1e6 /
                        std::max(1.0, TracedPasses[S]));
      std::printf(" (per pass)\n");
    }
    for (const Metric &M : Layers)
      std::printf("%-34s %14s  %s\n", M.Name.c_str(), fmt(M.Value).c_str(),
                  M.Unit.c_str());
    std::printf("trace files: %s/trace-*.json\n", Out.c_str());
  }
  for (size_t K = 0; K < Problems.size() && K < 12; ++K)
    std::printf("problem: %s\n", Problems[K].c_str());

  writeFile(Out + "/run-" + A.Workload + "-seed" + std::to_string(A.Seed) +
                (A.Trace ? "-trace" : "") + ".json",
            Record + "\n");

  bool Correct = Failed == 0 && Problems.empty();
  std::string Json = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  const char *Sep = "\"";
  for (const Metric &M : A.Trace ? Layers : E2E) {
    Json += Sep + M.Name + "\": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
    Sep = ", \"";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}

int main(int Argc, char **Argv) {
  refuseKnobs();
  Args A = parseArgs(Argc, Argv);
  if (A.Mode == "prepare")
    return prepare(A);
  if (A.Mode == "run")
    return run(A);
  die("unknown mode " + A.Mode);
}
