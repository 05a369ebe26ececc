//===- bench/bench_cross_shard_send.cpp - Experiment T1 ------------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// T1 -- zero-copy inter-shard transfer: donateGraph evacuates the
// payload once and the receiver adopts by retagging (one copy), and a
// payload built inside a donation scope is donated wholesale at close —
// zero copies, O(segments) on both sides.
//
// Series: the transfer operation (send + receive) of an N-byte pair
// list, manually timed so payload construction and receiver reclamation
// stay out of the measurement, N swept from one segment (4 KiB) to
// 1 MiB, once per way of building the payload. EXPERIMENTS.md (T1) keeps
// the retired deep-copy transport's numbers for comparison.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "heap/SharedImmutableSpace.h"

#include <chrono>

using namespace gengc;

namespace {

/// Sender and receiver heaps on one thread, wired to a private exchange
/// arena — the transfer protocol without the shard runtime's threads and
/// mailboxes around it, so the timing isolates the mechanism itself.
struct TransferPair {
  TransferPair()
      : Exchange(256u * 1024 * 1024),
        Sender(withExchange(benchConfig(), Exchange)),
        Receiver(withExchange(benchConfig(), Exchange)),
        Payload(Sender, Value::nil()) {}

  static HeapConfig withExchange(HeapConfig C, SharedImmutableSpace &X) {
    C.Exchange = &X;
    return C;
  }

  /// Builds the payload in the sender's current allocation context: a
  /// fixnum list of \p Bytes worth of pairs (one pair is two words),
  /// the same shape loadgen's --payload-bytes sends.
  Value buildPayload(int64_t Bytes) {
    Value L = Value::nil();
    const size_t Cells =
        static_cast<size_t>(Bytes) / (2 * sizeof(uintptr_t));
    for (size_t I = 0; I != Cells; ++I)
      L = Sender.cons(Value::fixnum(static_cast<intptr_t>(I)), L);
    return L;
  }

  /// Reclaims what the receiver accumulated (adopted donation
  /// segments); called outside the timed region.
  void drainReceiver() {
    Receiver.collectFull();
    Receiver.collectFull();
  }

  SharedImmutableSpace Exchange;
  Heap Sender;
  Heap Receiver;
  Root Payload;
};

using BenchClock = std::chrono::steady_clock;

void timeIteration(benchmark::State &State, BenchClock::time_point T0) {
  State.SetIterationTime(
      std::chrono::duration<double>(BenchClock::now() - T0).count());
}

void addThroughputCounters(benchmark::State &State) {
  State.SetBytesProcessed(State.iterations() * State.range(0));
  State.counters["payload_bytes"] =
      benchmark::Counter(static_cast<double>(State.range(0)));
}

void BM_CrossShardSendDonate(benchmark::State &State) {
  TransferPair P;
  P.Payload = P.buildPayload(State.range(0));
  uint64_t DonatedSegments = 0, ZeroCopyBytes = 0;
  int SinceDrain = 0;
  for (auto _ : State) {
    const auto T0 = BenchClock::now();
    DonatedGraph G = P.Sender.donateGraph(P.Payload.get());
    DonatedSegments += G.segmentCount();
    ZeroCopyBytes += G.Bytes;
    benchmark::DoNotOptimize(P.Receiver.adoptDonatedGraph(G));
    timeIteration(State, T0);
    if (++SinceDrain == 16) {
      P.drainReceiver();
      SinceDrain = 0;
    }
  }
  addThroughputCounters(State);
  State.counters["transfer_donated_segments"] =
      benchmark::Counter(static_cast<double>(DonatedSegments));
  State.counters["transfer_bytes_zero_copy"] =
      benchmark::Counter(static_cast<double>(ZeroCopyBytes));
}
BENCHMARK(BM_CrossShardSendDonate)
    ->RangeMultiplier(4)
    ->Range(4096, 1 << 20)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// The zero-copy fast path: the payload is built inside a donation scope
// (its nursery segments are exchange-arena segments pre-tagged for
// donation), so the send is the wholesale scope close — a
// self-containment scan plus O(segments) retagging, no copying at all
// on either side. Payload construction runs untimed: the application
// builds its reply either way; the mechanisms differ only in what the
// send itself costs.
void BM_CrossShardSendWholesale(benchmark::State &State) {
  TransferPair P;
  uint64_t DonatedSegments = 0, ZeroCopyBytes = 0;
  int SinceDrain = 0;
  for (auto _ : State) {
    P.Sender.openDonationScope();
    const Value L = P.buildPayload(State.range(0));
    const auto T0 = BenchClock::now();
    DonatedGraph G = P.Sender.tryCloseScopeDonating(L);
    GENGC_ASSERT(G.Domain, "self-contained scope must donate wholesale");
    DonatedSegments += G.segmentCount();
    ZeroCopyBytes += G.Bytes;
    benchmark::DoNotOptimize(P.Receiver.adoptDonatedGraph(G));
    timeIteration(State, T0);
    if (++SinceDrain == 16) {
      P.drainReceiver();
      SinceDrain = 0;
    }
  }
  addThroughputCounters(State);
  State.counters["transfer_donated_segments"] =
      benchmark::Counter(static_cast<double>(DonatedSegments));
  State.counters["transfer_bytes_zero_copy"] =
      benchmark::Counter(static_cast<double>(ZeroCopyBytes));
}
BENCHMARK(BM_CrossShardSendWholesale)
    ->RangeMultiplier(4)
    ->Range(4096, 1 << 20)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
