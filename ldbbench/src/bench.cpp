//===- ldbbench/src/bench.cpp - counters, spans, pass results -------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/symblob.h"
#include "core/target.h"
#include "nub/nub.h"
#include "postscript/atoms.h"

#include <cstdio>
#include <sstream>

using namespace ldb;
using namespace ldbbench;

const char *Counters::name(unsigned K) {
  static const char *const Names[NumIds] = {
      "round_trips", "msgs_sent", "msgs_received", "bytes_sent",
      "bytes_received", "posted", "retries", "code_hits", "code_misses",
      "data_hits", "data_misses", "steps", "nexts", "finishes",
      "temp_plants", "seeks", "reverses", "nub_cond_evals",
      "nub_local_resumes", "dict_finds", "dict_probes", "fastload_hits",
      "fastload_misses", "blob_builds", "blob_probes", "restores",
      "checkpoints", "pages_saved", "ckpt_bytes", "replayed", "icount",
      "link_ns"};
  return K < NumIds ? Names[K] : "?";
}

Counters Counters::sample(core::Target *T, nub::NubProcess *P) {
  Counters C;
  if (T && T->connected()) {
    const mem::TransportStats &S = T->stats();
    C.V[RoundTrips] = S.RoundTrips;
    C.V[MsgsSent] = S.MsgsSent;
    C.V[MsgsReceived] = S.MsgsReceived;
    C.V[BytesSent] = S.BytesSent;
    C.V[BytesReceived] = S.BytesReceived;
    C.V[Posted] = S.Posted;
    C.V[Retries] = S.Retries + S.Timeouts + S.StaleReplies;
    auto Space = [&](char Sp, unsigned Hit, unsigned Miss) {
      auto It = S.Cache.find(Sp);
      if (It != S.Cache.end()) {
        C.V[Hit] = It->second.Hits;
        C.V[Miss] = It->second.Misses;
      }
    };
    Space('c', CodeHits, CodeMisses);
    Space('d', DataHits, DataMisses);
    C.MaxInFlight = S.MaxInFlight;
    C.V[LinkNs] = T->client().channel().nowNs();
  }
  if (T) {
    const core::Target::ExecStats &E = T->execStats();
    C.V[Steps] = E.Steps;
    C.V[Nexts] = E.Nexts;
    C.V[Finishes] = E.Finishes;
    C.V[TempPlants] = E.TempPlants;
    C.V[Seeks] = E.Seeks;
    C.V[Reverses] = E.Reverses;
    C.V[NubCondEvals] = E.NubCondEvals;
    C.V[NubLocalResumes] = E.NubLocalResumes;
  }
  const ps::InterpStats &I = ps::interpStats();
  C.V[DictFinds] = I.DictFinds;
  C.V[DictProbes] = I.DictProbes;
  C.V[FastloadHits] = I.FastloadHits;
  C.V[FastloadMisses] = I.FastloadMisses;
  const core::symblob::SymblobStats &B = core::symblob::symblobStats();
  C.V[BlobBuilds] = B.Builds;
  C.V[BlobProbes] = B.IndexProbes;
  if (P) {
    nub::NubProcess::TimelineInfo TI = P->timelineInfo();
    C.V[Restores] = TI.Restores;
    C.V[Checkpoints] = TI.Checkpoints;
    C.V[PagesSaved] = TI.PagesSaved;
    C.V[CkptBytes] = TI.Bytes;
    C.V[Replayed] = TI.ReplayedInstrs;
    C.V[Icount] = P->machine().Icount;
  }
  return C;
}

int Tracer::open(std::string Name, const char *Layer) {
  Span S;
  S.Name = std::move(Name);
  S.Layer = Layer;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Cmd = CmdId;
  int Id = static_cast<int>(Spans.size());
  Spans.push_back(std::move(S));
  Open.push_back(Id);
  OpenAt.push_back(Counters::sample(CurT, CurP));
  Spans.back().Start = nowNs();
  return Id;
}

void Tracer::close(int Id) {
  uint64_t End = nowNs();
  Span &S = Spans[static_cast<size_t>(Id)];
  S.End = End;
  S.Delta = Counters::sample(CurT, CurP) - OpenAt.back();
  Open.pop_back();
  OpenAt.pop_back();
}

void Tracer::aggregate(std::map<std::string, double> &Layer) const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  for (size_t K = 0; K < Spans.size(); ++K) {
    const Span &S = Spans[K];
    uint64_t Dur = S.End - S.Start;
    Layer[std::string("self.") + S.Layer + "_ns"] +=
        static_cast<double>(Dur - std::min(Dur, ChildNs[K]));
    if (std::string(S.Layer) != "cli") {
      Layer["call." + S.Name + "_ns"] += static_cast<double>(Dur);
      Layer["call." + S.Name + "_n"] += 1;
    }
  }
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t K = 0; K < Spans.size(); ++K) {
    const Span &S = Spans[K];
    std::string Name;
    for (char Ch : S.Name)
      if (Ch == '"' || Ch == '\\')
        Name += std::string("\\") + Ch;
      else
        Name += Ch;
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"cmd\": %u",
                 K ? ",\n" : "", Name.c_str(), S.Layer,
                 double(S.Start - Base) / 1e3, double(S.End - S.Start) / 1e3,
                 K, S.Parent, S.Cmd);
    for (unsigned C = 0; C < Counters::NumIds; ++C)
      if (S.Delta.V[C])
        std::fprintf(F, ", \"%s\": %llu", Counters::name(C),
                     static_cast<unsigned long long>(S.Delta.V[C]));
    std::fprintf(F, "}}");
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// PassResult wire format: one record per line, parsed by the parent.
//===----------------------------------------------------------------------===//

std::string PassResult::serialize() const {
  std::ostringstream Out;
  Out.precision(17);
  for (const auto &[Key, Vals] : Samples) {
    Out << "S " << Key;
    for (double V : Vals)
      Out << ' ' << V;
    Out << '\n';
  }
  for (const auto &[Key, V] : Counts)
    Out << "C " << Key << ' ' << V << '\n';
  for (const auto &[Key, V] : Layer)
    Out << "L " << Key << ' ' << V << '\n';
  Out << "A " << Attempted << ' ' << Failed << '\n';
  Out << "T " << Transcript << '\n';
  for (const std::string &E : Errors) {
    std::string OneLine = E;
    for (char &Ch : OneLine)
      if (Ch == '\n')
        Ch = '|';
    Out << "E " << OneLine << '\n';
  }
  Out << "END\n";
  return Out.str();
}

bool PassResult::parse(const std::string &Text, PassResult &Out) {
  std::istringstream In(Text);
  std::string Line;
  bool Ended = false;
  while (std::getline(In, Line)) {
    if (Line == "END") {
      Ended = true;
      break;
    }
    if (Line.size() < 2)
      return false;
    std::istringstream Rec(Line.substr(2));
    switch (Line[0]) {
    case 'S': {
      std::string Key;
      Rec >> Key;
      std::vector<double> &Vals = Out.Samples[Key];
      double V;
      while (Rec >> V)
        Vals.push_back(V);
      break;
    }
    case 'C':
    case 'L': {
      std::string Key;
      double V = 0;
      if (!(Rec >> Key >> V))
        return false;
      (Line[0] == 'C' ? Out.Counts : Out.Layer)[Key] = V;
      break;
    }
    case 'A':
      if (!(Rec >> Out.Attempted >> Out.Failed))
        return false;
      break;
    case 'T':
      if (!(Rec >> Out.Transcript))
        return false;
      break;
    case 'E':
      Out.Errors.push_back(Line.substr(2));
      break;
    default:
      return false;
    }
  }
  return Ended;
}
