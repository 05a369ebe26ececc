//===- perfbench/bench/Bench.h - Benchmark measurement kit ----*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: clocks, a
/// log-linear histogram, the result report, pause recording for the
/// end-to-end pause/MMU metrics, and the tracer that records a span
/// around every public call the benchmark makes into a gengc layer.
///
/// Tracing is off in the end-to-end runs; a span then costs one branch
/// on a global flag. In the traced run each span takes two clock reads
/// and lands in a per-thread histogram of self times (duration minus the
/// time covered by child spans); a bounded prefix of raw spans is kept
/// in memory and written as a Chrome trace when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "gc/GcStats.h"
#include "gc/Heap.h"
#include "runtime/Shard.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
int64_t nowNs();
/// CPU time of the calling thread.
int64_t threadCpuNs();
/// User plus system CPU time of the whole process.
double processCpuSeconds();
/// Peak resident set size of the process.
double peakRssMb();

/// Deterministic xorshift generator; workloads derive every input from
/// the --seed through it.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 0x1234567ull) {
    next();
  }
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  uint64_t below(uint64_t N) { return next() % N; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Log-linear histogram: 32 sub-buckets per power of two, so quantiles
/// are within ~3% of the recorded value.
class Hist {
public:
  void record(uint64_t V);
  void merge(const Hist &O);
  uint64_t count() const { return N; }
  double quantile(double Q) const;

private:
  static constexpr unsigned SubBits = 5;
  static constexpr unsigned Buckets = (64 - SubBits + 1) << SubBits;
  static unsigned indexOf(uint64_t V);
  static double valueOf(unsigned I);
  std::vector<uint64_t> Counts;
  uint64_t N = 0;
};

/// Nearest-rank percentile of raw samples (Q in [0,1]); 0 when empty.
double percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// One run's results: metrics by name with unit and sample count, the
/// correctness verdict, anomaly flags and the config fields it set.
struct Report {
  struct Metric {
    double Value = 0;
    std::string Unit;
    uint64_t Samples = 0;
  };
  std::vector<std::string> Order;
  std::map<std::string, Metric> Metrics;
  std::vector<std::string> CheckFailures;
  std::vector<std::string> Anomalies;
  std::vector<std::string> Notes; ///< Workload-specific views, printed.
  std::vector<std::pair<std::string, std::string>> ConfigSet;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void set(const std::string &Name, double Value, const std::string &Unit,
           uint64_t Samples);
  /// Records a failed correctness check when !Ok. A failed audit counts
  /// as one failed op unless its ops were already counted (CountsOp).
  void check(bool Ok, const std::string &What, bool CountsOp = true);
  std::string toJson() const;
};

/// Pause log of one heap, fed by its post-GC hook on the owner thread.
struct PauseLog {
  struct Pause {
    int64_t EndNs;
    uint64_t DurNs;
    bool Full;
    uint64_t Workers;
    uint64_t StealHits;
    double Imbalance;
  };
  std::vector<Pause> Pauses;
  size_t PeakSegments = 0;
  /// Installs the hook; the log must outlive the heap.
  void attach(gengc::Heap &H);
};

/// The end-to-end pause metrics over [From, To), pause_p50_us and
/// pause_p99_us; when Traced, the collector's per-layer pause numbers
/// instead, the worst heap's MMU at 10 and 100 ms among them. (MMU is a
/// worst-window figure that does not repeat run to run on this kind of
/// host, so it stays out of the gated end-to-end set.)
void reportPauses(Report &R, const std::vector<const PauseLog *> &Logs,
                  int64_t From, int64_t To, bool Traced);

/// Minimum mutator utilization over every window of WindowNs inside
/// [From, To), given one heap's pauses.
double mmu(const PauseLog &L, int64_t From, int64_t To, int64_t WindowNs);

/// Cumulative counters of one heap at one instant.
struct HeapSnapshot {
  gengc::GcTotals Totals;
  uint64_t BytesAllocated = 0, BarriersExecuted = 0, BarriersElided = 0;
  size_t LiveBytes = 0, AdoptedSegments = 0;
};
/// Must run on the heap's owner thread.
HeapSnapshot snapshotHeap(gengc::Heap &H);
/// One heap's snapshots at the start and end of the measured window.
struct HeapWindow {
  HeapSnapshot Start, End;
};

/// The scope-close per-layer metrics.
void reportScopes(Report &R, const gengc::ScopeTotals &T,
                  const std::vector<double> &CloseUs);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

enum class SpanKind : uint8_t {
  GcAlloc,        ///< Heap allocation that did not collect.
  GcAllocCollect, ///< Heap allocation that ran a collection.
  GcStore,
  GuardianProtect,
  GuardianDrain,
  TableAccess,
  PoolAcquire,
  ExtAllocate,
  SendSmall,
  SendBulk,
  Recv,
  ExecutorSubmit,
  ScopeClose,
  VmRun,
  Count
};

/// True in the traced run only.
extern bool Tracing;
/// Sets the request the calling thread is working for (session id,
/// message id or program index; 0 for none), stamped on its spans.
void setRequest(uint64_t Id);

class Span {
public:
  explicit Span(SpanKind K) {
    if (Tracing)
      begin(K);
  }
  ~Span() {
    if (Active)
      end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  /// Re-labels the span before it ends (an allocation that collected).
  void relabel(SpanKind K);
  /// Records self time / N instead of self time (a pump that delivered
  /// N messages); N == 0 keeps the span out of the histogram.
  void perItem(uint64_t N) { Items = N; }

private:
  void begin(SpanKind K);
  void end();
  bool Active = false;
  uint64_t Items = 1;
};

void noteCollectingAlloc(int64_t WallNs, int64_t CpuNs);
/// Bytes the calling thread's heap had allocated at its last collection
/// (recorded by PauseLog's hook, which runs on the owner thread).
uint64_t bytesAtLastGc();

/// Wraps one heap allocation: an alloc span, split by whether the call
/// ran a collection, with the owner thread's CPU time for those that did.
/// The owner thread's CPU clock is read only when the allocation budget
/// says a collection may be due, so most spans pay two wall-clock reads.
template <typename Fn> gengc::Value traceAlloc(gengc::Heap &H, Fn &&F) {
  if (!Tracing)
    return F();
  const uint64_t Gc0 = H.collectionCount();
  const bool MayCollect = H.totalBytesAllocated() - bytesAtLastGc() + 65536 >=
                          H.config().Gen0CollectBytes;
  const int64_t Cpu0 = MayCollect ? threadCpuNs() : 0;
  const int64_t Wall0 = nowNs();
  gengc::Value V;
  {
    Span S(SpanKind::GcAlloc);
    V = F();
    if (H.collectionCount() != Gc0)
      S.relabel(SpanKind::GcAllocCollect);
  }
  if (MayCollect && H.collectionCount() != Gc0)
    noteCollectingAlloc(nowNs() - Wall0, threadCpuNs() - Cpu0);
  return V;
}

/// Merged span statistics of every thread.
struct TraceSummary {
  Hist Self[static_cast<unsigned>(SpanKind::Count)];
  int64_t CollectWallNs = 0;
  int64_t CollectCpuNs = 0;
  uint64_t CollectSamples = 0;
};
TraceSummary summarizeTrace();
/// Writes the kept raw spans as a Chrome trace_event file.
bool writeTrace(const std::string &Path);

/// The per-layer metrics of the layers every workload calls: the
/// workload's own allocation, store and guardian spans, and the collector and
/// heap counters of each heap over [From, To). Delivered counts the
/// objects the workload's guardians handed back.
void reportHeapLayers(Report &R, const TraceSummary &T,
                      const std::vector<HeapWindow> &Heaps,
                      const std::vector<const PauseLog *> &Logs, int64_t From,
                      int64_t To, uint64_t Delivered);

/// The src/runtime per-layer metrics shared by the two runtime workloads
/// (receive, transfer, mailbox and executor), after RT's shutdown.
void reportRuntime(Report &R, const TraceSummary &T,
                   const gengc::runtime::ShardRuntime &RT,
                   const gengc::runtime::FinalizationExecutor::Stats &ES,
                   const std::vector<gengc::runtime::Mailbox::Stats> &Inboxes);

/// Self-time percentile of one span kind, in the requested unit.
void reportSpan(Report &R, const TraceSummary &T, SpanKind K,
                const std::string &Name, double Q, double Divisor,
                const std::string &Unit);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
