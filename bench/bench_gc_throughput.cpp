//===- bench/bench_gc_throughput.cpp - Experiment C8 ---------------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// C8 -- Section 1's cost model of the substrate itself: "Modern garbage
// collectors run in time proportional to the amount of data retained in
// the system rather than the amount freed."
//
// Series:
//   CollectionVsLiveData/N  -- minor GC time against N live pairs
//                              (grows with N: retained data).
//   CollectionVsGarbage/N   -- minor GC time against N dead pairs with a
//                              tiny live set (flat: freed data is never
//                              touched by a copying collector).
//   AllocationThroughput    -- raw bump-allocation rate.
//   MinorVsFullPause        -- pause comparison on a mixed-age heap.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace gengc;

namespace {

void BM_CollectionVsLiveData(benchmark::State &State) {
  const int64_t LivePairs = State.range(0);
  Heap H(benchConfig());
  GcPauseRecorder Pauses(H);
  Root List(H, Value::nil());
  for (auto _ : State) {
    State.PauseTiming();
    List = Value::nil();
    H.collectFull(); // Reset: drop the previous round's copies.
    for (int64_t I = 0; I != LivePairs; ++I)
      List = H.cons(Value::fixnum(I), List.get());
    State.ResumeTiming();
    H.collectMinor(); // Copies all LivePairs survivors.
  }
  State.counters["live_pairs"] =
      benchmark::Counter(static_cast<double>(LivePairs));
  State.counters["bytes_copied"] =
      benchmark::Counter(static_cast<double>(H.lastStats().BytesCopied));
  Pauses.addGcCounters(State);
}
BENCHMARK(BM_CollectionVsLiveData)
    ->RangeMultiplier(4)
    ->Range(4096, 262144)
    ->Unit(benchmark::kMicrosecond);

void BM_CollectionVsGarbage(benchmark::State &State) {
  const int64_t DeadPairs = State.range(0);
  Heap H(benchConfig());
  Root Live(H, H.cons(Value::fixnum(1), Value::nil()));
  for (auto _ : State) {
    State.PauseTiming();
    for (int64_t I = 0; I != DeadPairs; ++I)
      H.cons(Value::fixnum(I), Value::nil()); // Immediately dead.
    State.ResumeTiming();
    H.collectMinor(); // Time must not grow with DeadPairs.
  }
  State.counters["dead_pairs"] =
      benchmark::Counter(static_cast<double>(DeadPairs));
}
BENCHMARK(BM_CollectionVsGarbage)
    ->RangeMultiplier(4)
    ->Range(4096, 262144)
    ->Unit(benchmark::kMicrosecond);

void BM_AllocationThroughput(benchmark::State &State) {
  Heap H(benchConfig());
  int64_t Since = 0;
  for (auto _ : State) {
    Value P = H.cons(Value::fixnum(1), Value::fixnum(2));
    benchmark::DoNotOptimize(P);
    if (++Since == 1 << 16) { // Keep the young generation bounded.
      State.PauseTiming();
      H.collectMinor();
      Since = 0;
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations());
  State.SetBytesProcessed(State.iterations() * 16);
}
BENCHMARK(BM_AllocationThroughput);

// Pause-time shape: a heap with a large old region and a small young
// region. Minor pauses must be small and independent of the old data;
// full pauses are proportional to all retained data.
void BM_MinorPauseMixedHeap(benchmark::State &State) {
  Heap H(benchConfig());
  GcPauseRecorder Pauses(H);
  Root OldList(H, Value::nil());
  for (int64_t I = 0; I != 262144; ++I)
    OldList = H.cons(Value::fixnum(I), OldList.get());
  ageHeapFully(H);
  Root Young(H, Value::nil());
  for (auto _ : State) {
    State.PauseTiming();
    Young = Value::nil();
    for (int64_t I = 0; I != 1024; ++I)
      Young = H.cons(Value::fixnum(I), Young.get());
    State.ResumeTiming();
    H.collectMinor();
  }
  State.counters["old_pairs"] = benchmark::Counter(262144);
  State.counters["young_pairs"] = benchmark::Counter(1024);
  Pauses.addGcCounters(State);
}
BENCHMARK(BM_MinorPauseMixedHeap)->Unit(benchmark::kMicrosecond);

// Full-collection pause over the same aged 256K-pair list: every pair
// is copied once per iteration, so this is the serial Cheney copier's
// throughput over an old generation.
void BM_FullPauseMixedHeap(benchmark::State &State) {
  Heap H(benchConfig());
  GcPauseRecorder Pauses(H);
  Root OldList(H, Value::nil());
  for (int64_t I = 0; I != 262144; ++I)
    OldList = H.cons(Value::fixnum(I), OldList.get());
  ageHeapFully(H);
  for (auto _ : State)
    H.collectFull();
  State.counters["old_pairs"] = benchmark::Counter(262144);
  Pauses.addGcCounters(State);
}
BENCHMARK(BM_FullPauseMixedHeap)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
