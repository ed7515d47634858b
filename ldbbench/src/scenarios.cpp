//===- ldbbench/src/scenarios.cpp - one pass of a scenario ----------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untraced run drives every command through
/// CommandInterpreter::execute, exactly as a user would. The traced run
/// instead performs the public calls core/cli.cpp makes for each command,
/// in the same order and with the same output text, so ldbbench can
/// open a span around each call: the root span of a command belongs to
/// `cli`, and its children to the layer that owns the call. The traced
/// transcript must equal the untraced one, which checks the mirror.
///
//===----------------------------------------------------------------------===//

#include "scenarios.h"

#include "core/cli.h"
#include "core/debugger.h"
#include "core/eval.h"
#include "nub/host.h"
#include "support/strings.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>

using namespace ldb;
using namespace ldb::core;
using namespace ldbbench;

namespace {

//===----------------------------------------------------------------------===//
// Ground truth from the simulated process
//===----------------------------------------------------------------------===//

/// Procedure names by entry address, from the linked image (not from the
/// debugger's symbol tables).
class ProcMap {
public:
  explicit ProcMap(const Program &P) {
    for (const lcc::ImageSymbol &S : P.Img.Symbols)
      if (S.Kind == 'T')
        Procs.emplace_back(S.Addr, S.Name);
    std::sort(Procs.begin(), Procs.end());
  }
  std::string at(uint32_t Pc) const {
    auto It = std::upper_bound(
        Procs.begin(), Procs.end(), std::make_pair(Pc, std::string("\xff")));
    return It == Procs.begin() ? std::string("?") : std::prev(It)->second;
  }

private:
  std::vector<std::pair<uint32_t, std::string>> Procs;
};

/// sizeof(struct rec { int tag; int count; double weight; }).
constexpr uint32_t PoolStride = 16;

int32_t memWord(target::Machine &M, uint32_t Addr) {
  uint32_t V = 0;
  M.loadInt(Addr, 4, V);
  return static_cast<int32_t>(V);
}

/// Every decimal integer in \p Text, in order.
std::vector<long long> integersIn(const std::string &Text) {
  std::vector<long long> Out;
  for (size_t K = 0; K < Text.size();) {
    bool Neg = Text[K] == '-' && K + 1 < Text.size() &&
               std::isdigit(static_cast<unsigned char>(Text[K + 1]));
    if (Neg || std::isdigit(static_cast<unsigned char>(Text[K]))) {
      size_t End = K + (Neg ? 1 : 0);
      while (End < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[End])))
        ++End;
      bool Fraction = End < Text.size() && Text[End] == '.';
      if (!Fraction)
        Out.push_back(std::atoll(Text.substr(K, End - K).c_str()));
      else
        while (End < Text.size() &&
               (std::isdigit(static_cast<unsigned char>(Text[End])) ||
                Text[End] == '.' || Text[End] == 'e' || Text[End] == '-'))
          ++End;
      K = End;
    } else {
      ++K;
    }
  }
  return Out;
}

/// A digest of the machine state a stop must reproduce: pc, retired
/// count, registers, and memory from the data segment up to the nub's
/// context block (code holds break words; the context block holds what
/// the nub saved).
uint64_t machineDigest(target::Machine &M, uint32_t DataBase,
                       uint32_t CtxAddr) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&](uint64_t V) {
    for (int K = 0; K < 8; ++K) {
      H ^= (V >> (8 * K)) & 0xFF;
      H *= 1099511628211ull;
    }
  };
  Mix(M.Pc);
  Mix(M.Icount);
  for (unsigned R = 1; R < 32; ++R)
    Mix(M.gpr(R));
  const std::vector<uint8_t> &Mem = M.memBytes();
  for (uint32_t A = DataBase; A < CtxAddr && A < Mem.size(); ++A) {
    H ^= Mem[A];
    H *= 1099511628211ull;
  }
  return H;
}

/// A second, undebugged copy of the program that runs to any retired
/// instruction count: the reference every recorded and replayed stop
/// must match. Snapshots taken on the way make going back cheap.
class Reference {
public:
  explicit Reference(const Program &P) : P(P) {
    nub::NubProcess &R = Host.createProcess("reference", *P.Img.Desc);
    if (Error E = P.Img.loadInto(R.machine()))
      std::abort();
    R.enter(P.Img.Entry);
    Proc = &R;
    Snaps.emplace(R.machine().Icount, R.machine());
  }

  /// The digest at retired count \p Icount, and the pc there.
  bool at(uint64_t Icount, uint32_t &Pc, uint64_t &Digest) {
    target::Machine &M = Proc->machine();
    if (Icount < M.Icount) {
      auto It = Snaps.upper_bound(Icount);
      M = std::prev(It)->second;
    }
    while (M.Icount < Icount) {
      target::RunResult R = M.run(Icount - M.Icount);
      if (R.Kind != target::StopKind::Running)
        return false;
    }
    Pc = M.Pc;
    Digest = machineDigest(M, P.Img.DataBase, Proc->contextAddr());
    return true;
  }

  /// Keeps a snapshot at the current point (one per episode).
  void snapshot() {
    target::Machine &M = Proc->machine();
    Snaps.emplace(M.Icount, M);
  }

private:
  const Program &P;
  nub::ProcessHost Host;
  nub::NubProcess *Proc = nullptr;
  std::map<uint64_t, target::Machine> Snaps;
};

//===----------------------------------------------------------------------===//
// One connected session and the command executor
//===----------------------------------------------------------------------===//

std::string errText(const std::string &Message) {
  return "error: " + Message + "\n";
}

struct Session {
  Ldb *D = nullptr;
  DebugSession *S = nullptr;
  std::unique_ptr<DebugSession> Owned; ///< traced runs build their own
  nub::NubProcess *Proc = nullptr;
  std::unique_ptr<CommandInterpreter> CLI;
  Tracer *Tr = nullptr;

  Target &target() { return S->target(); }
};

/// Ldb::createSession, or — traced — the same three calls it makes, each
/// in its layer's span.
Error connect(Session &Ss, Ldb &D, nub::ProcessHost &Host,
              const std::string &Name, const Program &P,
              const nub::SimParams *Sim, Tracer *Tr) {
  Ss.D = &D;
  Ss.Tr = Tr;
  Ss.Proc = Host.find(Name);
  if (!Tr) {
    Expected<DebugSession *> S =
        D.createSession(Host, Name, P.PsSymtab, P.LoaderTable, Sim);
    if (!S)
      return S.takeError();
    Ss.S = *S;
    Ss.CLI = std::make_unique<CommandInterpreter>(D);
    Ss.CLI->setCurrent(Ss.S);
    return Error::success();
  }
  Ss.Owned = std::make_unique<DebugSession>(D, Name, D.interp());
  Ss.S = Ss.Owned.get();
  Target &T = Ss.S->target();
  Tr->bind(&T, Ss.Proc);
  {
    Scoped Sp(Tr, "Target::connect", "nub");
    if (Error E = T.connect(Host, Name, Sim))
      return E;
  }
  std::shared_ptr<SharedImage> Img;
  {
    Scoped Sp(Tr, "ImageRepository::acquire", "symtab");
    Expected<std::shared_ptr<SharedImage>> I =
        D.images().acquire(T, P.PsSymtab, P.LoaderTable);
    if (!I)
      return I.takeError();
    Img = *I;
  }
  Scoped Sp(Tr, "Target::attachImage", "symtab");
  return T.attachImage(std::move(Img));
}

/// Ldb::disconnect's work for a session ldbbench built itself.
void disconnect(Session &Ss, const std::string &Name) {
  if (!Ss.Owned) {
    Ss.D->disconnect(Name);
    return;
  }
  Target &T = Ss.target();
  if (T.connected()) {
    (void)T.deleteAllUserBreakpoints();
    Error E = T.client().detach();
    (void)E;
  }
  Ss.Owned.reset();
  Ss.S = nullptr;
}

/// core::describeStop, call by call.
Expected<std::string> describeStopTraced(Target &T, Tracer *Tr) {
  if (T.exited())
    return "process exited with status " +
           std::to_string(T.lastStop().ExitStatus);
  if (!T.stopped())
    return Error::failure("the process is not stopped");
  const nub::StopInfo &Stop = T.lastStop();
  Expected<uint32_t> Pc = Error::failure("unread");
  {
    Scoped Sp(Tr, "Target::ctxPc", "frame");
    Pc = T.ctxPc();
  }
  if (!Pc)
    return Pc.takeError();
  std::string Out = nub::signalName(Stop.Signo);
  Target::Scope S(T);
  Scoped Sp(Tr, "symtab::briefForPc", "symtab");
  Expected<symtab::SiteBrief> Site = symtab::briefForPc(T, *Pc);
  if (Site) {
    Out += " at " + (Site->HasFile ? Site->File : std::string("?")) + ":" +
           std::to_string(Site->Line) + " in " + Site->ProcName;
  } else {
    Expected<Target::ProcAddr> Proc = T.procForPc(*Pc);
    Out += " in " + (Proc ? Proc->Name : std::string("?"));
  }
  return Out;
}

std::string stopLine(Target &T, Tracer *Tr) {
  Expected<std::string> Where = describeStopTraced(T, Tr);
  return (Where ? *Where : std::string("stopped")) + "\n";
}

/// The traced executor: core/cli.cpp's dispatch for the commands scripts
/// use, with a span around every call into a layer.
std::string executeTraced(Session &Ss, const std::string &Line) {
  Tracer *Tr = Ss.Tr;
  std::vector<std::string> Words = splitWords(Line);
  if (Words.empty())
    return std::string();
  const std::string &Cmd = Words[0];
  DebugSession &S = *Ss.S;
  Target &T = S.target();

  if (Cmd == "break") {
    if (Words.size() < 2)
      return errText("break SPEC [if EXPR]");
    std::string Cond;
    if (Words.size() >= 4 && Words[2] == "if") {
      size_t IfAt = Line.find(" if ");
      if (IfAt != std::string::npos)
        Cond = Line.substr(IfAt + 4);
    }
    size_t Colon = Words[1].rfind(':');
    Expected<int> Id = Error::failure("unplanted");
    {
      Scoped Sp(Tr, "exec::addBreak", "exec");
      Id = Colon != std::string::npos
               ? S.addBreakAtLine(Words[1].substr(0, Colon),
                                  std::atoi(Words[1].c_str() + Colon + 1))
               : S.addBreakAtProc(Words[1]);
    }
    if (!Id)
      return errText(Id.message());
    if (!Cond.empty()) {
      Error E = Error::success();
      {
        Scoped Sp(Tr, "exec::setBreakpointCondition", "expr");
        E = S.setBreakpointCondition(*Id, Cond);
      }
      if (E) {
        Scoped Sp(Tr, "Target::deleteUserBreakpoint", "exec");
        Error D = T.deleteUserBreakpoint(*Id);
        (void)D;
        return errText(E.message());
      }
      return "breakpoint " + std::to_string(*Id) + " planted at " +
             Words[1] + " if " + Cond + "\n";
    }
    return "breakpoint " + std::to_string(*Id) + " planted at " + Words[1] +
           "\n";
  }

  if (Cmd == "info" && Words.size() > 1 && Words[1] == "breakpoints") {
    const auto &Bps = T.userBreakpoints();
    if (Bps.empty())
      return "no breakpoints\n";
    std::string Out;
    for (const auto &[Id, U] : Bps) {
      Out += "  " + std::to_string(Id) + "  " + hex32(U.Addrs.front()) +
             "  " + U.Spec;
      if (U.Addrs.size() > 1)
        Out += " (" + std::to_string(U.Addrs.size()) + " sites)";
      if (!U.CondText.empty())
        Out += "  if " + U.CondText;
      Out += "  hits " + std::to_string(U.HitCount);
      if (U.Ignore)
        Out += "  ignore " + std::to_string(U.Ignore);
      Out += "\n";
    }
    return Out;
  }

  if (Cmd == "delete") {
    Scoped Sp(Tr, "Target::deleteUserBreakpoint", "exec");
    if (Words.size() > 1) {
      int Id = std::atoi(Words[1].c_str());
      if (Error E = T.deleteUserBreakpoint(Id))
        return errText(E.message());
      return "deleted breakpoint " + std::to_string(Id) + "\n";
    }
    Expected<size_t> N = T.deleteAllUserBreakpoints();
    if (!N)
      return errText(N.message());
    return "deleted " + std::to_string(*N) + " breakpoint(s)\n";
  }

  if (Cmd == "ignore") {
    if (Words.size() < 3)
      return errText("ignore N COUNT");
    int Id = std::atoi(Words[1].c_str());
    Target::UserBreakpoint *U = T.userBreakpoint(Id);
    if (!U)
      return errText("no breakpoint " + Words[1]);
    U->Ignore = static_cast<uint64_t>(std::atoll(Words[2].c_str()));
    U->Dirty = true;
    return "will ignore the next " + Words[2] + " hits of breakpoint " +
           Words[1] + "\n";
  }

  // Run commands: the exec call, then the stop description.
  Error (DebugSession::*Run)() = nullptr;
  const char *RunName = nullptr;
  if (Cmd == "continue") {
    Run = &DebugSession::continueToStop;
    RunName = "exec::continueToStop";
  } else if (Cmd == "step") {
    Run = &DebugSession::stepToNextStop;
    RunName = "exec::stepToNextStop";
  } else if (Cmd == "next") {
    Run = &DebugSession::stepOver;
    RunName = "exec::stepOver";
  } else if (Cmd == "finish") {
    Run = &DebugSession::stepOut;
    RunName = "exec::stepOut";
  } else if (Cmd == "reverse-step") {
    Run = &DebugSession::reverseStep;
    RunName = "exec::reverseStep";
  } else if (Cmd == "reverse-next") {
    Run = &DebugSession::reverseNext;
    RunName = "exec::reverseNext";
  } else if (Cmd == "reverse-finish") {
    Run = &DebugSession::reverseFinish;
    RunName = "exec::reverseFinish";
  } else if (Cmd == "reverse-continue") {
    Run = &DebugSession::reverseContinue;
    RunName = "exec::reverseContinue";
  }
  if (Run) {
    Error E = Error::success();
    {
      Scoped Sp(Tr, RunName, "exec");
      E = (S.*Run)();
    }
    if (E)
      return errText(E.message());
    return stopLine(T, Tr);
  }

  if (Cmd == "record") {
    Scoped Sp(Tr, "Target::enableRecording", "exec");
    if (Error E = S.enableRecording())
      return errText(E.message());
    return "recording from instruction " + std::to_string(T.stopIcount()) +
           "\n";
  }

  if (Cmd == "where") {
    // core::renderBacktrace, call by call.
    Target::Scope Sc(T);
    Expected<std::vector<FrameInfo>> Frames = Error::failure("unwalked");
    {
      Scoped Sp(Tr, "Target::backtrace", "frame");
      Frames = T.backtrace(16);
    }
    if (!Frames)
      return errText(Frames.message());
    Scoped Sp(Tr, "symtab::briefForPc", "symtab");
    std::string Out;
    for (size_t K = 0; K < Frames->size(); ++K) {
      const FrameInfo &FI = (*Frames)[K];
      Out += "#" + std::to_string(K) + " ";
      Expected<symtab::SiteBrief> Site = symtab::briefForPc(T, FI.Pc);
      if (Site) {
        Out += Site->ProcName + " at " +
               (Site->HasFile ? Site->File : std::string("?")) + ":" +
               std::to_string(Site->Line);
      } else {
        Expected<Target::ProcAddr> Proc = T.procForPc(FI.Pc);
        Out += Proc ? Proc->Name : std::string("?");
      }
      Out += "\n";
    }
    return Out;
  }

  if (Cmd == "print") {
    if (Words.size() < 2)
      return errText("print NAME");
    Scoped Sp(Tr, "printVariable", "expr");
    Expected<std::string> V = printVariable(T, Words[1], S.currentFrame());
    if (!V)
      return errText(V.message());
    return Words[1] + " = " + *V + "\n";
  }

  if (Cmd == "eval") {
    if (Words.size() < 2)
      return errText("eval EXPR");
    std::string Expr = Line.substr(Line.find(Cmd) + Cmd.size());
    Scoped Sp(Tr, "evalExpression", "expr");
    Expected<std::string> V =
        evalExpression(T, S.exprSession(), Expr, S.currentFrame());
    if (!V)
      return errText(V.message());
    return *V + "\n";
  }

  if (Cmd == "set") {
    if (Words.size() < 3)
      return errText("set NAME VALUE");
    Scoped Sp(Tr, "assignVariable", "expr");
    if (Error E =
            assignVariable(T, Words[1], Words[2], S.currentFrame()))
      return errText(E.message());
    return Words[1] + " = " + Words[2] + "\n";
  }

  return errText("unknown command '" + Cmd + "' (the traced executor "
                 "mirrors only the commands scripts use)");
}

std::string execute(Session &Ss, const std::string &Line) {
  if (!Ss.Tr)
    return Ss.CLI->execute(Line);
  Ss.Tr->beginCommand();
  Scoped Root(Ss.Tr, Line, "cli");
  return executeTraced(Ss, Line);
}

//===----------------------------------------------------------------------===//
// Command classes and per-pass bookkeeping
//===----------------------------------------------------------------------===//

bool isRun(const std::string &Cmd) {
  return Cmd == "continue" || Cmd == "step" || Cmd == "next" ||
         Cmd == "finish" || Cmd.rfind("reverse-", 0) == 0;
}
bool isStep(const std::string &Cmd) {
  return Cmd == "step" || Cmd == "next" || Cmd == "finish";
}
bool isInspect(const std::string &Cmd) {
  return Cmd == "where" || Cmd == "print" || Cmd == "eval" || Cmd == "info";
}
bool isReverse(const std::string &Cmd) { return Cmd.rfind("reverse-", 0) == 0; }

std::string firstWord(const std::string &Line) {
  size_t Sp = Line.find(' ');
  return Sp == std::string::npos ? Line : Line.substr(0, Sp);
}

/// The name after the last " in " of a stop line.
std::string stoppedIn(const std::string &Out) {
  size_t At = Out.rfind(" in ");
  if (At == std::string::npos)
    return std::string();
  std::string Name = Out.substr(At + 4);
  while (!Name.empty() && (Name.back() == '\n' || Name.back() == ' '))
    Name.pop_back();
  return Name;
}

/// Adds the counter delta of one command to the traced sums under
/// \p Class (cmd, step, rev, fwd, cont, attach).
void addDelta(PassResult &R, const std::string &Class, const Counters &D,
              double LatencyNs) {
  R.Layer[Class + ".n"] += 1;
  R.Layer[Class + ".latency_ns"] += LatencyNs;
  for (unsigned K = 0; K < Counters::NumIds; ++K)
    R.Layer[Class + "." + Counters::name(K)] += static_cast<double>(D.V[K]);
  double &Max = R.Layer[Class + ".max_in_flight"];
  Max = std::max(Max, static_cast<double>(D.MaxInFlight));
}

void addExecHost(PassResult &R, const std::string &Class, const Tracer &Tr,
                 size_t From) {
  const std::vector<Tracer::Span> &Spans = Tr.spans();
  for (size_t K = From; K < Spans.size(); ++K)
    if (std::string(Spans[K].Layer) == "exec")
      R.Layer[Class + ".exec_host_ns"] +=
          static_cast<double>(Spans[K].End - Spans[K].Start);
}

/// Final counts of a pass: the deterministic costs the self-check pins.
void recordCounts(PassResult &R, const Counters &C) {
  static const unsigned Pinned[] = {
      Counters::RoundTrips,  Counters::MsgsSent,     Counters::MsgsReceived,
      Counters::BytesSent,   Counters::BytesReceived, Counters::CodeHits,
      Counters::CodeMisses,  Counters::DataHits,     Counters::DataMisses,
      Counters::Icount,      Counters::Replayed,     Counters::Checkpoints,
      Counters::BlobBuilds,  Counters::Restores,     Counters::LinkNs};
  for (unsigned K : Pinned)
    R.Counts[Counters::name(K)] += static_cast<double>(C.V[K]);
}

size_t residentKb() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%lu %lu", &Size, &Resident);
  std::fclose(F);
  return N == 2 ? Resident * 4 : 0;
}

//===----------------------------------------------------------------------===//
// interactive and timetravel: one session, one script
//===----------------------------------------------------------------------===//

PassResult sessionPass(Scenario Sc, const std::vector<std::string> &Lines,
                       const Inputs &In, const PassOptions &O) {
  PassResult R;
  const Program *P = In.find(SessionTarget, SessionLines);
  if (!P) {
    R.fail("program not prepared");
    return R;
  }
  bool Tt = Sc == Scenario::Timetravel;
  ProcMap Procs(*P);
  Tracer Tr;
  Tracer *TrP = O.Trace ? &Tr : nullptr;
  std::string Transcript;

  // Set-up: a debugger, a process waiting in its nub, a session, and any
  // `setup` commands.
  uint64_t Setup0 = nowNs();
  std::unique_ptr<Ldb> D;
  {
    Scoped Sp(TrP, "Ldb::Ldb", "ps");
    D = std::make_unique<Ldb>();
  }
  nub::ProcessHost Host;
  nub::NubProcess &Proc =
      Host.createProcess("gen", *target::targetByName(SessionTarget));
  if (Error E = P->Img.loadInto(Proc.machine())) {
    R.fail(E.message());
    return R;
  }
  Proc.enter(P->Img.Entry);
  nub::SimParams Wan;
  Wan.LatencyNs = WanLatencyNs;
  Wan.BytesPerSec = WanBytesPerSec;
  Wan.JitterNs = 0;
  Wan.Seed = 1;
  bool OverWan = Sc == Scenario::Interactive && !O.Local;
  Session Ss;
  if (Error E = connect(Ss, *D, Host, "gen", *P, OverWan ? &Wan : nullptr,
                        TrP)) {
    R.fail("connect: " + E.message());
    return R;
  }
  Target &T = Ss.target();
  if (TrP)
    TrP->bind(&T, &Proc);
  nub::ChannelEnd &Link = T.client().channel();
  size_t First = 0;
  for (; First < Lines.size(); ++First) {
    const std::string &L = Lines[First];
    if (L.rfind("setup ", 0) != 0)
      break;
    std::string Out = execute(Ss, L.substr(6));
    Transcript += L + "\n" + Out;
    if (Out.rfind("error:", 0) == 0)
      R.fail(L + " -> " + Out);
  }
  R.Samples["setup"].push_back(
      (double(nowNs() - Setup0) + double(Link.nowNs())) / 1e9);

  std::unique_ptr<Reference> Ref;
  if (Tt)
    Ref = std::make_unique<Reference>(*P);
  Counters Start = Counters::sample(&T, &Proc);

  for (size_t K = First; K < Lines.size(); ++K) {
    const std::string &Line = Lines[K];
    if (Line.empty() || Line[0] == '#')
      continue;
    std::string Cmd = firstWord(Line);
    bool Recording = T.recording();
    size_t SpanFrom = TrP ? TrP->spans().size() : 0;
    Counters Before = TrP ? Counters::sample(&T, &Proc) : Counters();

    uint64_t V0 = Link.nowNs();
    uint64_t H0 = nowNs();
    std::string Out = execute(Ss, Line);
    uint64_t H1 = nowNs();
    uint64_t V1 = Link.nowNs();
    double LatNs = double(H1 - H0) + double(V1 - V0);
    double Ms = LatNs / 1e6;

    ++R.Attempted;
    Transcript += Line + "\n" + Out;
    bool Reverse = isReverse(Cmd);
    bool Fwd = Tt && Cmd == "continue" && Recording;
    if (Tt) {
      if (Reverse)
        R.Samples["rev"].push_back(Ms);
      if (Fwd)
        R.Samples["rec_fwd"].push_back(Ms);
    } else {
      R.Samples["cmd"].push_back(Ms);
      if (isStep(Cmd))
        R.Samples["step"].push_back(Ms);
      if (isInspect(Cmd))
        R.Samples["inspect"].push_back(Ms);
    }
    if (TrP) {
      Counters Delta = Counters::sample(&T, &Proc) - Before;
      std::string Class = Reverse         ? "rev"
                          : Fwd           ? "fwd"
                          : isStep(Cmd)   ? "step"
                          : Cmd == "continue" ? "cont"
                                              : "other";
      addDelta(R, "cmd", Delta, LatNs);
      addDelta(R, Class, Delta, LatNs);
      addExecHost(R, Class, *TrP, SpanFrom);
      if (Fwd)
        R.Layer["fwd.host_ns"] += double(H1 - H0);
    }

    // Oracles: ground truth from the simulated process.
    if (Out.rfind("error:", 0) == 0) {
      R.fail(Line + " -> " + Out);
      continue;
    }
    target::Machine &M = Proc.machine();
    if (isRun(Cmd)) {
      std::string Said = stoppedIn(Out);
      std::string Truth = Procs.at(M.Pc);
      if (Said != Truth) {
        R.fail(Line + ": debugger says " + Said + ", machine pc is in " +
               Truth);
        continue;
      }
      if (Tt) {
        uint32_t RefPc = 0;
        uint64_t RefDigest = 0;
        uint64_t Digest =
            machineDigest(M, P->Img.DataBase, Proc.contextAddr());
        if (!Ref->at(M.Icount, RefPc, RefDigest) || RefPc != M.Pc ||
            RefDigest != Digest)
          R.fail(Line + ": stop at icount " + std::to_string(M.Icount) +
                 " pc " + hex32(M.Pc) + " differs from the reference run");
        else if (Cmd == "continue")
          Ref->snapshot();
      }
    } else if (Cmd == "print" || Cmd == "eval") {
      std::vector<std::string> W = splitWords(Line);
      std::vector<long long> Said = integersIn(Out.substr(Out.find('=') + 1));
      std::vector<long long> Truth;
      bool Checked = true;
      auto Pool = [&](unsigned I) {
        return memWord(M, P->symbol("pool") + PoolStride * I + 4);
      };
      int32_t Total = memWord(M, P->symbol("total"));
      bool Eval4 = Cmd == "eval" && W.size() == 4;
      if (Cmd == "eval")
        Said = integersIn(Out);
      if (Cmd == "print" && W[1] == "total") {
        Truth = {Total};
      } else if (Cmd == "print" && W[1].rfind("cache", 0) == 0 &&
                 P->symbol(W[1])) {
        for (unsigned I = 0; I < 12; ++I)
          Truth.push_back(memWord(M, P->symbol(W[1]) + 4 * I));
      } else if (Eval4 && W[1] == "total" && W[2] == "+") {
        Truth = {Total + std::atoll(W[3].c_str())};
      } else if (Eval4 && W[1] == "total" && W[2] == "-") {
        Truth = {static_cast<long long>(Total) -
                 Pool(static_cast<unsigned>(std::atoi(W[3].c_str() + 5)))};
      } else if (Eval4 && W[1].rfind("pool[", 0) == 0) {
        Truth = {2LL *
                 Pool(static_cast<unsigned>(std::atoi(W[1].c_str() + 5)))};
      } else {
        Checked = false;
      }
      if (Checked && Said != Truth)
        R.fail(Line + " -> " + Out + "  (memory disagrees)");
    }
  }

  Counters End = Counters::sample(&T, &Proc);
  recordCounts(R, End - Start);
  R.Counts["setup_blob_builds"] = static_cast<double>(Start.V[Counters::BlobBuilds]);
  if (TrP) {
    Tr.aggregate(R.Layer);
    nub::NubProcess::TimelineInfo TI = Proc.timelineInfo();
    R.Layer["ckpt.bytes"] += static_cast<double>(TI.Bytes);
    R.Layer["ckpt.count"] += TI.Checkpoints;
    R.Layer["ckpt.pages_saved"] += static_cast<double>(TI.PagesSaved);
    if (!O.TraceFile.empty())
      Tr.writeChrome(O.TraceFile);
  }
  R.hash(Transcript);
  if (!O.TranscriptFile.empty())
    writeFile(O.TranscriptFile, Transcript);
  return R;
}

//===----------------------------------------------------------------------===//
// attach: debugger start-ups over the zero-latency link
//===----------------------------------------------------------------------===//

PassResult attachPass(const std::vector<std::string> &Lines,
                      const Inputs &In, const PassOptions &O) {
  PassResult R;
  Tracer Tr;
  Tracer *TrP = O.Trace ? &Tr : nullptr;
  std::string Transcript;
  nub::ProcessHost Host;
  std::map<std::string, std::unique_ptr<Ldb>> Slots;
  std::set<std::string> Attached;              // images seen in this process
  std::map<std::string, std::string> WhereAt;  // image -> first `where`
  Counters Total;

  // Set-up: every process the pass attaches, waiting in its nub, and the
  // first debugger.
  uint64_t Setup0 = nowNs();
  std::vector<nub::NubProcess *> Procs;
  std::vector<std::string> StepLines;
  std::vector<std::vector<std::string>> Steps;
  for (const std::string &Line : Lines) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> W = splitWords(Line);
    const Program *P =
        W.size() == 5 && W[0] == "attach"
            ? In.find(W[2], static_cast<unsigned>(std::atoi(W[3].c_str())))
            : nullptr;
    if (!P) {
      R.fail("bad attach line or unprepared program: " + Line);
      return R;
    }
    nub::NubProcess &Proc =
        Host.createProcess("p" + std::to_string(Procs.size()), *P->Img.Desc);
    if (Error E = P->Img.loadInto(Proc.machine())) {
      R.fail(E.message());
      return R;
    }
    Proc.enter(P->Img.Entry);
    Procs.push_back(&Proc);
    StepLines.push_back(Line);
    Steps.push_back(W);
  }
  // A pass opens with a cold attach, whose fresh debugger is set-up.
  if (!Steps.empty()) {
    Scoped Sp(TrP, "Ldb::Ldb", "ps");
    Slots[Steps[0][4]] = std::make_unique<Ldb>();
  }
  R.Samples["setup"].push_back(double(nowNs() - Setup0) / 1e9);

  for (size_t N = 0; N < Steps.size(); ++N) {
    const std::vector<std::string> &W = Steps[N];
    const std::string &Line = StepLines[N];
    const std::string &Kind = W[1], &Slot = W[4];
    unsigned Size = static_cast<unsigned>(std::atoi(W[3].c_str()));
    const Program *P = In.find(W[2], Size);
    std::string Image = Inputs::key(W[2], Size);
    bool Cold = !Attached.count(Image);
    if ((Kind == "cold") != Cold ||
        (Kind == "shared" && (!Slots.count(Slot) || Cold))) {
      R.fail("script and process disagree on the attach kind: " + Line);
      continue;
    }
    if (Kind != "shared" && N > 0) {
      Slots[Slot].reset();
      Scoped Sp(TrP, "Ldb::Ldb", "ps");
      Slots[Slot] = std::make_unique<Ldb>();
    }
    Ldb &D = *Slots[Slot];
    std::string Name = "p" + std::to_string(N);
    nub::NubProcess &Proc = *Procs[N];

    if (TrP) {
      TrP->bind(nullptr, &Proc);
      TrP->beginCommand();
    }
    size_t Rss0 = TrP && Cold ? residentKb() : 0;
    Counters Before = Counters::sample(nullptr, &Proc);
    Session Ss;
    std::string Out;
    uint64_t H0 = nowNs();
    {
      Scoped Root(TrP, Line, "cli");
      if (Error E = connect(Ss, D, Host, Name, *P, nullptr, TrP)) {
        Out = errText("connect: " + E.message());
      } else {
        if (TrP)
          TrP->bind(&Ss.target(), &Proc);
        for (const char *Cmd : {"break main", "continue", "where"}) {
          std::string One = TrP ? executeTraced(Ss, Cmd) : execute(Ss, Cmd);
          Out += One;
          if (One.rfind("error:", 0) == 0)
            break;
        }
      }
    }
    uint64_t H1 = nowNs();
    R.Samples["attach_" + Kind].push_back(double(H1 - H0) / 1e6);
    ++R.Attempted;
    Transcript += Line + "\n" + Out;
    if (Ss.S) {
      Counters After = Counters::sample(&Ss.target(), &Proc);
      Counters Delta = After - Before;
      // Transport counters start at zero with the session.
      for (unsigned K : {Counters::RoundTrips, Counters::MsgsSent,
                         Counters::MsgsReceived, Counters::BytesSent,
                         Counters::BytesReceived, Counters::CodeHits,
                         Counters::CodeMisses, Counters::DataHits,
                         Counters::DataMisses, Counters::Posted,
                         Counters::Retries, Counters::LinkNs})
        Delta.V[K] = After.V[K];
      Total += Delta;
      if (TrP) {
        addDelta(R, "attach", Delta, double(H1 - H0));
        addDelta(R, "attach_" + Kind, Delta, double(H1 - H0));
        if (Cold) {
          size_t Rss1 = residentKb();
          R.Layer["cold.rss_kb"] += double(Rss1 > Rss0 ? Rss1 - Rss0 : 0);
          R.Layer["cold.n"] += 1;
        }
      }
    }

    // Oracle: `where` at main is the same for every attach of an image.
    std::string Bt = Out.substr(Out.find('#') == std::string::npos
                                    ? Out.size()
                                    : Out.find('#'));
    if (Out.find("error:") != std::string::npos || Bt.empty() ||
        Bt.rfind("#0 main at ", 0) != 0)
      R.fail(Line + " -> " + Out);
    else if (!WhereAt.count(Image))
      WhereAt[Image] = Bt;
    else if (WhereAt[Image] != Bt)
      R.fail(Line + ": `where` differs from the first attach of " + Image);
    Attached.insert(Image);
    if (TrP)
      TrP->bind(nullptr, nullptr);
    if (Ss.S)
      disconnect(Ss, Name);
  }
  recordCounts(R, Total);
  if (TrP) {
    Tr.aggregate(R.Layer);
    if (!O.TraceFile.empty())
      Tr.writeChrome(O.TraceFile);
  }
  R.hash(Transcript);
  if (!O.TranscriptFile.empty())
    writeFile(O.TranscriptFile, Transcript);
  return R;
}

} // namespace

PassResult ldbbench::runPass(Scenario S, const std::vector<std::string> &Lines,
                             const Inputs &In, const PassOptions &O) {
  if (S == Scenario::Attach)
    return attachPass(Lines, In, O);
  return sessionPass(S, Lines, In, O);
}
