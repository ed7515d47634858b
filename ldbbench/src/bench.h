//===- ldbbench/src/bench.h - shared benchmark types ------------*- C++ -*-===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one pass of a scenario reports, the counter snapshot spans and
/// passes difference, and the span recorder of the traced run. The
/// benchmark measures from outside the debugger: counters come from the
/// public stat structs (TransportStats, Target::ExecStats, InterpStats,
/// SymblobStats, the nub's TimelineInfo, the machine's Icount) and every
/// span is opened by ldbbench around its own call into a layer.
///
//===----------------------------------------------------------------------===//

#ifndef LDBBENCH_BENCH_H
#define LDBBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ldb::core {
class Target;
}
namespace ldb::nub {
class NubProcess;
}

namespace ldbbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Everything one pass (one fresh debugger process running one scenario)
/// reports to the parent.
struct PassResult {
  /// Latency samples in milliseconds, by metric family: cmd, step,
  /// inspect, rev, rec_fwd, attach_cold, attach_warm, attach_shared,
  /// setup (seconds).
  std::map<std::string, std::vector<double>> Samples;
  /// Deterministic counts: identical for every pass of one script.
  std::map<std::string, double> Counts;
  /// Traced runs: per-layer sums (span times in ns, calls, counters).
  std::map<std::string, double> Layer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Transcript = 1469598103934665603ull; ///< FNV-1a of all output
  std::vector<std::string> Errors;              ///< first few failures

  void fail(const std::string &What) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(What);
  }
  void hash(const std::string &Text) {
    for (unsigned char C : Text) {
      Transcript ^= C;
      Transcript *= 1099511628211ull;
    }
  }

  std::string serialize() const;
  static bool parse(const std::string &Text, PassResult &Out);
};

/// One snapshot of every public counter the benchmark reads. Spans and
/// passes store differences of two snapshots.
struct Counters {
  enum Id : unsigned {
    RoundTrips, MsgsSent, MsgsReceived, BytesSent, BytesReceived, Posted,
    Retries, CodeHits, CodeMisses, DataHits, DataMisses,
    Steps, Nexts, Finishes, TempPlants, Seeks, Reverses, NubCondEvals,
    NubLocalResumes,
    DictFinds, DictProbes, FastloadHits, FastloadMisses,
    BlobBuilds, BlobProbes,
    Restores, Checkpoints, PagesSaved, CkptBytes, Replayed,
    Icount, LinkNs,
    NumIds
  };
  static const char *name(unsigned K);

  uint64_t V[NumIds] = {};
  uint64_t MaxInFlight = 0; ///< high-water mark, not a running count

  /// Reads every counter: the target's transport, exec and link clocks
  /// (when \p T is connected), the nub's timeline and the machine (when
  /// \p P is given), and the process-wide interpreter and blob counters.
  static Counters sample(ldb::core::Target *T, ldb::nub::NubProcess *P);

  Counters operator-(const Counters &O) const {
    Counters D;
    for (unsigned K = 0; K < NumIds; ++K)
      D.V[K] = V[K] - O.V[K];
    D.MaxInFlight = MaxInFlight;
    return D;
  }
  Counters &operator+=(const Counters &O) {
    for (unsigned K = 0; K < NumIds; ++K)
      V[K] += O.V[K];
    if (O.MaxInFlight > MaxInFlight)
      MaxInFlight = O.MaxInFlight;
    return *this;
  }
};

/// The traced run's span recorder: spans live in memory and are written
/// as Chrome trace-event JSON when the pass ends. A span holds its name,
/// layer, start, end, parent and the id of the command it belongs to;
/// the counter deltas over its interval ride along as arguments.
class Tracer {
public:
  struct Span {
    std::string Name;
    const char *Layer = "";
    uint64_t Start = 0, End = 0; ///< host ns
    int Parent = -1;
    uint32_t Cmd = 0;
    Counters Delta;
  };

  /// Context the counter snapshots read; rebound as sessions come and go.
  void bind(ldb::core::Target *T, ldb::nub::NubProcess *P) {
    CurT = T;
    CurP = P;
  }

  /// Starts a command: every span opened until endCommand shares its id.
  void beginCommand() { ++CmdId; }

  int open(std::string Name, const char *Layer);
  void close(int Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// Adds per-layer self times and per-name call times to \p Layer.
  void aggregate(std::map<std::string, double> &Layer) const;

  /// Writes the spans as Chrome trace-event JSON.
  bool writeChrome(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
  std::vector<Counters> OpenAt;
  uint32_t CmdId = 0;
  ldb::core::Target *CurT = nullptr;
  ldb::nub::NubProcess *CurP = nullptr;
};

/// RAII span; a null tracer makes it free.
class Scoped {
public:
  Scoped(Tracer *Tr, std::string Name, const char *Layer) : Tr(Tr) {
    if (Tr)
      Id = Tr->open(std::move(Name), Layer);
  }
  ~Scoped() {
    if (Tr)
      Tr->close(Id);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer *Tr;
  int Id = -1;
};

} // namespace ldbbench

#endif // LDBBENCH_BENCH_H
