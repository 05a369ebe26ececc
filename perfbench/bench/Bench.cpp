//===- perfbench/bench/Bench.cpp - Benchmark measurement kit ------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sys/resource.h>
#include <time.h>

namespace perfbench {

namespace {
thread_local uint64_t CurrentRequest = 0;
thread_local uint64_t BytesAtLastGc = 0;
} // namespace

int64_t nowNs() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

int64_t threadCpuNs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
}

double processCpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===--- Histogram --------------------------------------------------------===//

unsigned Hist::indexOf(uint64_t V) {
  if (V < (1u << SubBits))
    return static_cast<unsigned>(V);
  const unsigned Log = 63 - static_cast<unsigned>(std::countl_zero(V));
  const unsigned Shift = Log - SubBits;
  const unsigned Sub = static_cast<unsigned>(V >> Shift) & ((1u << SubBits) - 1);
  return ((Shift + 1) << SubBits) + Sub;
}

double Hist::valueOf(unsigned I) {
  if (I < (1u << SubBits))
    return I;
  const unsigned Shift = (I >> SubBits) - 1;
  const uint64_t Sub = I & ((1u << SubBits) - 1);
  const double Lo = std::ldexp(static_cast<double>((1u << SubBits) + Sub), Shift);
  return Lo + std::ldexp(0.5, Shift); // Bucket midpoint.
}

void Hist::record(uint64_t V) {
  if (Counts.empty())
    Counts.assign(Buckets, 0);
  ++Counts[indexOf(V)];
  ++N;
}

void Hist::merge(const Hist &O) {
  if (O.N == 0)
    return;
  if (Counts.empty())
    Counts.assign(Buckets, 0);
  for (unsigned I = 0; I != Buckets; ++I)
    Counts[I] += O.Counts[I];
  N += O.N;
}

double Hist::quantile(double Q) const {
  if (N == 0)
    return 0;
  const uint64_t Rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(Q * N)));
  uint64_t Seen = 0;
  for (unsigned I = 0; I != Buckets; ++I) {
    Seen += Counts[I];
    if (Seen >= Rank)
      return valueOf(I);
  }
  return valueOf(Buckets - 1);
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

//===--- Report -----------------------------------------------------------===//

void Report::set(const std::string &Name, double Value, const std::string &Unit,
                 uint64_t Samples) {
  if (!Metrics.count(Name))
    Order.push_back(Name);
  Metrics[Name] = Metric{std::isfinite(Value) ? Value : 0.0, Unit, Samples};
}

void Report::check(bool Ok, const std::string &What, bool CountsOp) {
  if (Ok)
    return;
  CheckFailures.push_back(What);
  if (CountsOp)
    ++Failed;
}

namespace {
std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string jsonList(const std::vector<std::string> &L) {
  std::string Out = "[";
  for (size_t I = 0; I != L.size(); ++I)
    Out += (I ? ", " : "") + jsonString(L[I]);
  return Out + "]";
}
} // namespace

std::string Report::toJson() const {
  std::string Out = "{\"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ",\n \"check_failures\": " + jsonList(CheckFailures) +
                    ",\n \"anomalies\": " + jsonList(Anomalies) +
                    ",\n \"notes\": " + jsonList(Notes) +
                    ",\n \"config_set\": {";
  for (size_t I = 0; I != ConfigSet.size(); ++I)
    Out += (I ? ", " : "") + jsonString(ConfigSet[I].first) + ": " +
           jsonString(ConfigSet[I].second);
  Out += "},\n \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != Order.size(); ++I) {
    const Metric &M = Metrics.at(Order[I]);
    std::snprintf(Buf, sizeof Buf, "%.17g", M.Value);
    Out += std::string(I ? ",\n  " : "\n  ") + jsonString(Order[I]) +
           ": {\"value\": " + Buf + ", \"unit\": " + jsonString(M.Unit) +
           ", \"samples\": " + std::to_string(M.Samples) + "}";
  }
  return Out + "}}\n";
}

//===--- Pauses -----------------------------------------------------------===//

void PauseLog::attach(gengc::Heap &H) {
  H.addPostGcHook([this](gengc::Heap &Hp, const gengc::GcStats &S) {
    Pauses.push_back(Pause{nowNs(), S.DurationNanos,
                           S.CollectedGeneration == Hp.oldestGeneration(),
                           S.GcWorkersUsed, S.StealHits,
                           S.workerImbalanceRatio()});
    PeakSegments = std::max(PeakSegments, Hp.segmentsInUse());
    BytesAtLastGc = Hp.totalBytesAllocated();
  });
}

double mmu(const PauseLog &L, int64_t From, int64_t To, int64_t WindowNs) {
  struct Iv {
    int64_t S, E;
  };
  std::vector<Iv> Ivs;
  for (const auto &P : L.Pauses) {
    const int64_t S = std::max(From, P.EndNs - static_cast<int64_t>(P.DurNs));
    const int64_t E = std::min(To, P.EndNs);
    if (E > S)
      Ivs.push_back({S, E});
  }
  if (To - From <= WindowNs) {
    int64_t Busy = 0;
    for (const Iv &I : Ivs)
      Busy += I.E - I.S;
    return To > From ? 1.0 - static_cast<double>(Busy) / (To - From) : 1.0;
  }
  // Cumulative pause time up to X (intervals are disjoint and ordered:
  // one heap's collections never overlap).
  std::vector<int64_t> Prefix(Ivs.size() + 1, 0);
  for (size_t I = 0; I != Ivs.size(); ++I)
    Prefix[I + 1] = Prefix[I] + (Ivs[I].E - Ivs[I].S);
  auto Cum = [&](int64_t X) {
    auto It = std::upper_bound(Ivs.begin(), Ivs.end(), X,
                               [](int64_t V, const Iv &I) { return V < I.S; });
    const size_t K = static_cast<size_t>(It - Ivs.begin());
    if (K == 0)
      return int64_t{0};
    const Iv &Last = Ivs[K - 1];
    return Prefix[K - 1] + std::min(X, Last.E) - Last.S;
  };
  double Worst = 1.0;
  auto Try = [&](int64_t Start) {
    Start = std::clamp(Start, From, To - WindowNs);
    const int64_t Busy = Cum(Start + WindowNs) - Cum(Start);
    Worst = std::min(Worst, 1.0 - static_cast<double>(Busy) / WindowNs);
  };
  for (const Iv &I : Ivs) {
    Try(I.S);
    Try(I.E - WindowNs);
  }
  return Worst;
}

void reportPauses(Report &R, const std::vector<const PauseLog *> &Logs,
                  int64_t From, int64_t To, bool Traced) {
  std::vector<double> All, Minor, Full, Imbalance;
  uint64_t Workers = 0, StealHits = 0, Parallel = 0;
  double Mmu10 = 1.0, Mmu100 = 1.0;
  for (const PauseLog *L : Logs) {
    for (const auto &P : L->Pauses) {
      if (P.EndNs < From || P.EndNs > To)
        continue;
      const double Us = static_cast<double>(P.DurNs) / 1000.0;
      All.push_back(Us);
      (P.Full ? Full : Minor).push_back(Us);
      Workers = std::max(Workers, P.Workers);
      StealHits += P.StealHits;
      if (P.Workers > 1) {
        ++Parallel;
        Imbalance.push_back(P.Imbalance);
      }
    }
    Mmu10 = std::min(Mmu10, mmu(*L, From, To, 10'000'000));
    Mmu100 = std::min(Mmu100, mmu(*L, From, To, 100'000'000));
  }
  if (!Traced) {
    R.set("pause_p50_us", percentile(All, 0.5), "us", All.size());
    R.set("pause_p99_us", percentile(All, 0.99), "us", All.size());
    R.set("mmu_10ms", Mmu10, "fraction", All.size());
    return;
  }
  R.set("gc.mmu_10ms", Mmu10, "fraction", All.size());
  R.set("gc.mmu_100ms", Mmu100, "fraction", All.size());
  R.set("gc.pause.minor_p50_us", percentile(Minor, 0.5), "us", Minor.size());
  R.set("gc.pause.full_p50_us", percentile(Full, 0.5), "us", Full.size());
  R.set("gc.parallel.workers", static_cast<double>(Workers), "count",
        All.size());
  R.set("gc.parallel.steal_hits", static_cast<double>(StealHits), "count",
        Parallel);
  const double Imb = median(Imbalance);
  R.set("gc.parallel.imbalance", Imb, "ratio", Imbalance.size());
  if (Workers > 1 && StealHits == 0 && Imb > 0.9 * static_cast<double>(Workers))
    R.Anomalies.push_back(
        "gc.parallel: zero steal hits with " + std::to_string(Workers) +
        " workers and imbalance " + std::to_string(Imb) +
        " (one worker copies everything)");
}

HeapSnapshot snapshotHeap(gengc::Heap &H) {
  HeapSnapshot S;
  S.Totals = H.totals();
  S.BytesAllocated = H.totalBytesAllocated();
  S.BarriersExecuted = H.barriersExecuted();
  S.BarriersElided = H.barriersElided();
  S.LiveBytes = H.liveBytes();
  S.AdoptedSegments = H.adoptedSegments();
  return S;
}

void reportHeapLayers(Report &R, const TraceSummary &T,
                      const std::vector<HeapWindow> &Heaps,
                      const std::vector<const PauseLog *> &Logs, int64_t From,
                      int64_t To, uint64_t Delivered) {
  // Window deltas of the cumulative counters, summed over the heaps.
  gengc::GcTotals D;
  uint64_t Bytes = 0, Executed = 0, Elided = 0;
  size_t Live = 0, Adopted = 0, Segments = 0;
  for (const HeapWindow &W : Heaps) {
    const gengc::GcTotals &A = W.End.Totals, &B = W.Start.Totals;
    D.Collections += A.Collections - B.Collections;
    D.FullCollections += A.FullCollections - B.FullCollections;
    D.BytesCopied += A.BytesCopied - B.BytesCopied;
    D.BytesInFromSpace += A.BytesInFromSpace - B.BytesInFromSpace;
    D.ProtectedEntriesVisited +=
        A.ProtectedEntriesVisited - B.ProtectedEntriesVisited;
    D.GuardianObjectsSaved += A.GuardianObjectsSaved - B.GuardianObjectsSaved;
    D.GuardianLoopIterations +=
        A.GuardianLoopIterations - B.GuardianLoopIterations;
    D.WeakPairsExamined += A.WeakPairsExamined - B.WeakPairsExamined;
    D.WeakPointersBroken += A.WeakPointersBroken - B.WeakPointersBroken;
    for (unsigned P = 0; P != gengc::NumGcPhases; ++P)
      D.Phases.Nanos[P] += A.Phases.Nanos[P] - B.Phases.Nanos[P];
    Bytes += W.End.BytesAllocated - W.Start.BytesAllocated;
    Executed += W.End.BarriersExecuted - W.Start.BarriersExecuted;
    Elided += W.End.BarriersElided - W.Start.BarriersElided;
    Live += W.End.LiveBytes;
    Adopted += W.End.AdoptedSegments;
  }
  for (const PauseLog *L : Logs)
    Segments += L->PeakSegments;

  const auto &Alloc = T.Self[static_cast<unsigned>(SpanKind::GcAlloc)];
  const auto &AllocGc = T.Self[static_cast<unsigned>(SpanKind::GcAllocCollect)];
  R.set("gc.alloc.ns", Alloc.quantile(0.5), "ns", Alloc.count());
  R.set("gc.alloc.calls", static_cast<double>(Alloc.count() + AllocGc.count()),
        "count", 1);
  reportSpan(R, T, SpanKind::GcStore, "gc.store.ns", 0.5, 1, "ns");
  R.set("gc.bytes_allocated", static_cast<double>(Bytes), "bytes", 1);
  R.set("gc.barriers.executed", static_cast<double>(Executed), "count", 1);
  R.set("gc.barriers.elided", static_cast<double>(Elided), "count", 1);
  R.set("gc.barriers.elided_frac",
        Executed + Elided ? static_cast<double>(Elided) / (Executed + Elided)
                          : 0.0,
        "fraction", Executed + Elided);

  const uint64_t N = D.Collections;
  R.set("gc.minor.count", static_cast<double>(N - D.FullCollections), "count",
        1);
  R.set("gc.full.count", static_cast<double>(D.FullCollections), "count", 1);
  reportPauses(R, Logs, From, To, /*Traced=*/true);
  R.set("gc.pause.wall_cpu_ratio",
        T.CollectCpuNs ? static_cast<double>(T.CollectWallNs) / T.CollectCpuNs
                       : 0.0,
        "ratio", T.CollectSamples);
  static const char *Phases[] = {"Setup",      "Roots",     "RememberedSets",
                                 "Copy",       "Guardians", "Finalizers",
                                 "WeakPairs",  "SymbolTable", "Reclaim"};
  for (unsigned P = 0; P != gengc::NumGcPhases; ++P)
    R.set(std::string("gc.phase.") + Phases[P] + ".us",
          N ? static_cast<double>(D.Phases.Nanos[P]) / 1000.0 / N : 0.0, "us",
          N);
  R.set("gc.survival_frac",
        D.BytesInFromSpace
            ? static_cast<double>(D.BytesCopied) / D.BytesInFromSpace
            : 0.0,
        "fraction", N);
  R.set("gc.guardian.visited", static_cast<double>(D.ProtectedEntriesVisited),
        "count", N);
  R.set("gc.guardian.saved", static_cast<double>(D.GuardianObjectsSaved),
        "count", N);
  R.set("gc.guardian.loop_iters",
        static_cast<double>(D.GuardianLoopIterations), "count", N);
  R.set("gc.weak.examined", static_cast<double>(D.WeakPairsExamined), "count",
        N);
  R.set("gc.weak.broken", static_cast<double>(D.WeakPointersBroken), "count",
        N);

  reportSpan(R, T, SpanKind::GuardianProtect, "core.guardian.protect.ns", 0.5,
             1, "ns");
  reportSpan(R, T, SpanKind::GuardianDrain, "core.guardian.drain.us", 0.5,
             1000, "us");
  R.set("core.guardian.delivered", static_cast<double>(Delivered), "count", 1);
  R.set("heap.segments_in_use.peak", static_cast<double>(Segments), "count", 1);
  R.set("heap.adopted_segments.end", static_cast<double>(Adopted), "count", 1);
  R.set("heap.live_bytes.end", static_cast<double>(Live), "bytes", 1);
}

void reportRuntime(Report &R, const TraceSummary &T,
                   const gengc::runtime::ShardRuntime &RT,
                   const gengc::runtime::FinalizationExecutor::Stats &ES,
                   const std::vector<gengc::runtime::Mailbox::Stats> &Inboxes) {
  reportSpan(R, T, SpanKind::Recv, "runtime.recv.us", 0.5, 1000, "us");
  uint64_t Decoded = 0, Donated = 0, Adopted = 0;
  for (const auto &Rep : RT.reports()) {
    Decoded += Rep.MessagesDecodedNodes;
    Donated += Rep.TransferDonatedSegments;
    Adopted += Rep.MessagesAdopted;
  }
  R.set("runtime.recv.decoded_nodes", static_cast<double>(Decoded), "count", 1);
  R.set("runtime.transfer.donated_segments", static_cast<double>(Donated),
        "count", 1);
  R.set("runtime.transfer.adopted", static_cast<double>(Adopted), "count", 1);
  uint64_t MaxDepth = 0, Blocks = 0, Rejected = 0;
  for (const auto &S : Inboxes) {
    MaxDepth = std::max(MaxDepth, S.MaxDepth);
    Blocks += S.BackpressureBlocks;
    Rejected += S.RejectedFull;
  }
  R.set("runtime.mailbox.max_depth", static_cast<double>(MaxDepth), "count", 1);
  R.set("runtime.mailbox.backpressure_blocks", static_cast<double>(Blocks),
        "count", 1);
  R.set("runtime.mailbox.rejected_full", static_cast<double>(Rejected), "count",
        1);
  reportSpan(R, T, SpanKind::ExecutorSubmit, "runtime.executor.submit.us", 0.5,
             1000, "us");
  R.set("runtime.executor.wait_p99_us",
        static_cast<double>(ES.WaitNanos.p99()) / 1000.0, "us",
        ES.WaitNanos.count());
  R.set("runtime.executor.run_p50_us",
        static_cast<double>(ES.RunNanos.p50()) / 1000.0, "us",
        ES.RunNanos.count());
  R.set("runtime.executor.max_pending", static_cast<double>(ES.MaxPending),
        "count", 1);
  R.set("runtime.executor.backpressure_waits",
        static_cast<double>(ES.BackpressureWaits), "count", 1);
  R.set("runtime.executor.retried", static_cast<double>(ES.Retried), "count", 1);
  if (ES.MaxPending >=
      gengc::runtime::FinalizationExecutor::Config().HighWatermark)
    R.Anomalies.push_back("runtime.executor.max_pending reached the "
                          "executor's HighWatermark (submitters blocked)");
}

void reportScopes(Report &R, const gengc::ScopeTotals &T,
                  const std::vector<double> &CloseUs) {
  R.set("gc.scope.close_us.p50", percentile(CloseUs, 0.5), "us",
        CloseUs.size());
  R.set("gc.scope.close_us.p99", percentile(CloseUs, 0.99), "us",
        CloseUs.size());
  R.set("gc.scope.reclaimed_frac",
        T.BytesInScopes ? static_cast<double>(T.BytesReclaimed) / T.BytesInScopes
                        : 0.0,
        "fraction", T.ScopesClosed);
  R.set("gc.scope.evacuated_bytes", static_cast<double>(T.BytesEvacuated),
        "bytes", T.ScopesClosed);
}

//===--- Tracing ----------------------------------------------------------===//

bool Tracing = false;

void setRequest(uint64_t Id) { CurrentRequest = Id; }
uint64_t bytesAtLastGc() { return BytesAtLastGc; }

namespace {

constexpr unsigned NumKinds = static_cast<unsigned>(SpanKind::Count);
/// Raw spans kept per thread: every span up to the cap, then one in 64.
constexpr size_t KeepAll = 20000;
constexpr size_t KeepCap = 200000;

struct KeptSpan {
  uint64_t Id, Parent, Request;
  int64_t Start, End;
  SpanKind Kind;
};

struct OpenSpan {
  uint64_t Id;
  int64_t Start;
  int64_t ChildNs;
  SpanKind Kind;
};

struct ThreadTrace {
  unsigned Tid = 0;
  Hist Self[NumKinds];
  std::vector<OpenSpan> Stack;
  std::vector<KeptSpan> Kept;
  uint64_t NextId = 0;
  uint64_t Seen = 0;
  int64_t CollectWallNs = 0, CollectCpuNs = 0;
  uint64_t CollectSamples = 0;
};

std::mutex RegistryM;
std::vector<std::unique_ptr<ThreadTrace>> Registry;

ThreadTrace &threadTrace() {
  thread_local ThreadTrace *TT = nullptr;
  if (!TT) {
    std::lock_guard<std::mutex> Lock(RegistryM);
    Registry.push_back(std::make_unique<ThreadTrace>());
    TT = Registry.back().get();
    TT->Tid = static_cast<unsigned>(Registry.size());
  }
  return *TT;
}

const char *spanName(SpanKind K) {
  static const char *Names[NumKinds] = {
      "gc.alloc",           "gc.alloc.collected",  "gc.store",
      "core.guardian.protect", "core.guardian.drain", "core.table.access",
      "resource.pool.acquire", "resource.ext.allocate", "runtime.send.small",
      "runtime.send.bulk",  "runtime.recv",        "runtime.executor.submit",
      "gc.scope.close",     "scheme.vm.run"};
  return Names[static_cast<unsigned>(K)];
}

} // namespace

void Span::begin(SpanKind K) {
  ThreadTrace &T = threadTrace();
  T.Stack.push_back(OpenSpan{++T.NextId, nowNs(), 0, K});
  Active = true;
}

void Span::relabel(SpanKind K) {
  if (Active)
    threadTrace().Stack.back().Kind = K;
}

void Span::end() {
  const int64_t End = nowNs();
  ThreadTrace &T = threadTrace();
  const OpenSpan O = T.Stack.back();
  T.Stack.pop_back();
  const int64_t Dur = End - O.Start;
  if (!T.Stack.empty())
    T.Stack.back().ChildNs += Dur;
  if (Items)
    T.Self[static_cast<unsigned>(O.Kind)].record(
        static_cast<uint64_t>(std::max<int64_t>(0, Dur - O.ChildNs)) / Items);
  ++T.Seen;
  if (T.Kept.size() < KeepCap && (T.Seen <= KeepAll || T.Seen % 64 == 0))
    T.Kept.push_back(KeptSpan{O.Id, T.Stack.empty() ? 0 : T.Stack.back().Id,
                              CurrentRequest, O.Start, End, O.Kind});
}

void noteCollectingAlloc(int64_t WallNs, int64_t CpuNs) {
  ThreadTrace &T = threadTrace();
  T.CollectWallNs += WallNs;
  T.CollectCpuNs += CpuNs;
  ++T.CollectSamples;
}

TraceSummary summarizeTrace() {
  TraceSummary S;
  std::lock_guard<std::mutex> Lock(RegistryM);
  for (const auto &T : Registry) {
    for (unsigned K = 0; K != NumKinds; ++K)
      S.Self[K].merge(T->Self[K]);
    S.CollectWallNs += T->CollectWallNs;
    S.CollectCpuNs += T->CollectCpuNs;
    S.CollectSamples += T->CollectSamples;
  }
  return S;
}

bool writeTrace(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\": [\n", F);
  bool First = true;
  std::lock_guard<std::mutex> Lock(RegistryM);
  for (const auto &T : Registry)
    for (const KeptSpan &K : T->Kept) {
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"request\": %llu, \"id\": %llu, \"parent\": %llu}}",
                   First ? "" : ",\n", spanName(K.Kind), T->Tid,
                   static_cast<double>(K.Start) / 1000.0,
                   static_cast<double>(K.End - K.Start) / 1000.0,
                   static_cast<unsigned long long>(K.Request),
                   static_cast<unsigned long long>(K.Id),
                   static_cast<unsigned long long>(K.Parent));
      First = false;
    }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

void reportSpan(Report &R, const TraceSummary &T, SpanKind K,
                const std::string &Name, double Q, double Divisor,
                const std::string &Unit) {
  const Hist &H = T.Self[static_cast<unsigned>(K)];
  R.set(Name, H.quantile(Q) / Divisor, Unit, H.count());
}

} // namespace perfbench
