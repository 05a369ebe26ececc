//===- gc/GcStats.h - Per-collection statistics ---------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters gathered during each collection. The generation-friendliness
/// experiments (DESIGN.md C1/C2) are stated in terms of these counters:
/// e.g. ProtectedEntriesVisited must not grow with the number of
/// registered objects parked in generations older than the one collected.
///
/// Each collection is also broken down into phases (GcPhase): the
/// per-phase wall-clock nanos in GcStats::Phases account for the whole
/// pause, so DurationNanos minus Phases.totalNanos() is only the
/// inter-phase bookkeeping (a handful of flag stores). The telemetry
/// layer (gc/telemetry/) records the same phases as trace events.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_GCSTATS_H
#define GENGC_GC_GCSTATS_H

#include <cstdint>

namespace gengc {

/// The distinct phases of one collection, in execution order (the
/// Section 4 phase structure; see Collector.h). Used to index
/// GcStats::Phases and as the payload of PhaseSpan trace events.
enum class GcPhase : uint8_t {
  Setup = 0,      ///< From-space detach, sweep-cursor init, stale
                  ///< remembered-set clearing.
  Roots,          ///< Root-slot and root-vector forwarding.
  RememberedSets, ///< Older generations' remembered-object scan.
  Copy,           ///< The initial Cheney kleene-sweep to a fixpoint.
  Guardians,      ///< Section 4 pend-hold/pend-final fixpoint loop
                  ///< (including its interleaved kleene-sweeps).
  Finalizers,     ///< register-for-finalization list triage.
  WeakPairs,      ///< Weak-pair second pass (update or break cars).
  SymbolTable,    ///< Weak symbol-table entry update/drop.
  Reclaim,        ///< From-space poisoning and segment reclamation.
};
constexpr unsigned NumGcPhases = 9;

/// Display name of a phase (stable identifiers; used by the trace
/// exporter, the post-GC log line, and (gc-stats)).
constexpr const char *gcPhaseName(GcPhase P) {
  switch (P) {
  case GcPhase::Setup:
    return "setup";
  case GcPhase::Roots:
    return "roots";
  case GcPhase::RememberedSets:
    return "remembered-sets";
  case GcPhase::Copy:
    return "copy";
  case GcPhase::Guardians:
    return "guardians";
  case GcPhase::Finalizers:
    return "finalizers";
  case GcPhase::WeakPairs:
    return "weak-pairs";
  case GcPhase::SymbolTable:
    return "symbol-table";
  case GcPhase::Reclaim:
    return "reclaim";
  }
  return "unknown";
}

/// Wall-clock nanoseconds spent in each phase of one collection.
struct GcPhaseBreakdown {
  uint64_t Nanos[NumGcPhases] = {};

  uint64_t &operator[](GcPhase P) {
    return Nanos[static_cast<unsigned>(P)];
  }
  uint64_t operator[](GcPhase P) const {
    return Nanos[static_cast<unsigned>(P)];
  }

  /// Sum over all phases; reconciles with GcStats::DurationNanos.
  uint64_t totalNanos() const {
    uint64_t Total = 0;
    for (unsigned I = 0; I != NumGcPhases; ++I)
      Total += Nanos[I];
    return Total;
  }

  void accumulate(const GcPhaseBreakdown &Other) {
    for (unsigned I = 0; I != NumGcPhases; ++I)
      Nanos[I] += Other.Nanos[I];
  }
};

struct GcStats {
  uint64_t CollectionIndex = 0;
  unsigned CollectedGeneration = 0; ///< The paper's g.
  unsigned TargetGeneration = 0;    ///< The paper's target generation.

  uint64_t ObjectsCopied = 0;
  uint64_t BytesCopied = 0;
  /// Survivors promoted into a generation older than the one they were
  /// copied from (with TenureCopies == 1, every copy is a promotion).
  uint64_t ObjectsPromoted = 0;
  uint64_t RootsScanned = 0;
  uint64_t RememberedObjectsScanned = 0;

  /// Bytes occupied by the collected generations at the start of the
  /// collection (the from-space extent). BytesCopied / BytesInFromSpace
  /// is the collection's survival rate.
  uint64_t BytesInFromSpace = 0;

  /// Guardian bookkeeping (Section 4 algorithm).
  uint64_t ProtectedEntriesVisited = 0; ///< Entries in protected[i], i<=g.
  uint64_t GuardianObjectsSaved = 0;    ///< Moved to an inaccessible group.
  uint64_t ProtectedEntriesKept = 0;    ///< Moved to protected[target].
  uint64_t GuardianEntriesDropped = 0;  ///< Guardian itself was dropped.
  uint64_t GuardianLoopIterations = 0;  ///< Iterations of the pend-final
                                        ///< fixpoint loop.

  uint64_t WeakPairsExamined = 0;
  uint64_t WeakPointersBroken = 0;

  uint64_t FinalizerThunksRun = 0; ///< register-for-finalization baseline.
  uint64_t SymbolsDropped = 0;     ///< Weak symbol-table entries removed.

  uint64_t SegmentsFreed = 0;
  uint64_t DurationNanos = 0;

  /// Mutator write-barrier traffic since the previous collection (the
  /// window that ends with this pause): stores that took the full
  /// writeBarrier path vs stores the compile-time elision pass (or a
  /// heap-internal fast path) proved barrier-free. Elided / (Executed +
  /// Elided) is the store-tax reduction the static analysis bought.
  uint64_t BarriersExecuted = 0;
  uint64_t BarriersElided = 0;

  /// Scavenge width. The copier is serial (DESIGN.md §11), so every
  /// collection reports one worker, no steals and an imbalance of 1.0.
  /// The fields remain because the benchmark's pause log reads them.
  uint64_t GcWorkersUsed = 0; ///< 1 once the collection has run.
  uint64_t StealHits = 0;     ///< Always 0.

  /// Where the pause went, phase by phase.
  GcPhaseBreakdown Phases;

  /// Always 1.0: one worker copies everything (see GcWorkersUsed).
  double workerImbalanceRatio() const { return 1.0; }
};

/// Running totals across all collections of a heap. Every GcStats
/// counter has a matching total here; accumulate() must be kept in sync
/// when a counter is added (tests/gc/telemetry_test.cpp checks every
/// field).
struct GcTotals {
  uint64_t Collections = 0;
  uint64_t FullCollections = 0;
  uint64_t ObjectsCopied = 0;
  uint64_t BytesCopied = 0;
  uint64_t ObjectsPromoted = 0;
  uint64_t RootsScanned = 0;
  uint64_t RememberedObjectsScanned = 0;
  uint64_t BytesInFromSpace = 0;
  uint64_t ProtectedEntriesVisited = 0;
  uint64_t GuardianObjectsSaved = 0;
  uint64_t ProtectedEntriesKept = 0;
  uint64_t GuardianEntriesDropped = 0;
  uint64_t GuardianLoopIterations = 0;
  uint64_t WeakPairsExamined = 0;
  uint64_t WeakPointersBroken = 0;
  uint64_t FinalizerThunksRun = 0;
  uint64_t SymbolsDropped = 0;
  uint64_t SegmentsFreed = 0;
  uint64_t DurationNanos = 0;
  uint64_t BarriersExecuted = 0;
  uint64_t BarriersElided = 0;
  GcPhaseBreakdown Phases;

  void accumulate(const GcStats &S, unsigned OldestGeneration) {
    ++Collections;
    if (S.CollectedGeneration == OldestGeneration)
      ++FullCollections;
    ObjectsCopied += S.ObjectsCopied;
    BytesCopied += S.BytesCopied;
    ObjectsPromoted += S.ObjectsPromoted;
    RootsScanned += S.RootsScanned;
    RememberedObjectsScanned += S.RememberedObjectsScanned;
    BytesInFromSpace += S.BytesInFromSpace;
    ProtectedEntriesVisited += S.ProtectedEntriesVisited;
    GuardianObjectsSaved += S.GuardianObjectsSaved;
    ProtectedEntriesKept += S.ProtectedEntriesKept;
    GuardianEntriesDropped += S.GuardianEntriesDropped;
    GuardianLoopIterations += S.GuardianLoopIterations;
    WeakPairsExamined += S.WeakPairsExamined;
    WeakPointersBroken += S.WeakPointersBroken;
    FinalizerThunksRun += S.FinalizerThunksRun;
    SymbolsDropped += S.SymbolsDropped;
    SegmentsFreed += S.SegmentsFreed;
    DurationNanos += S.DurationNanos;
    BarriersExecuted += S.BarriersExecuted;
    BarriersElided += S.BarriersElided;
    Phases.accumulate(S.Phases);
  }

  /// Folds another heap's totals into this one (cross-shard
  /// aggregation; see telemetry/Aggregate.h). Like accumulate(),
  /// must cover every field.
  void merge(const GcTotals &O) {
    Collections += O.Collections;
    FullCollections += O.FullCollections;
    ObjectsCopied += O.ObjectsCopied;
    BytesCopied += O.BytesCopied;
    ObjectsPromoted += O.ObjectsPromoted;
    RootsScanned += O.RootsScanned;
    RememberedObjectsScanned += O.RememberedObjectsScanned;
    BytesInFromSpace += O.BytesInFromSpace;
    ProtectedEntriesVisited += O.ProtectedEntriesVisited;
    GuardianObjectsSaved += O.GuardianObjectsSaved;
    ProtectedEntriesKept += O.ProtectedEntriesKept;
    GuardianEntriesDropped += O.GuardianEntriesDropped;
    GuardianLoopIterations += O.GuardianLoopIterations;
    WeakPairsExamined += O.WeakPairsExamined;
    WeakPointersBroken += O.WeakPointersBroken;
    FinalizerThunksRun += O.FinalizerThunksRun;
    SymbolsDropped += O.SymbolsDropped;
    SegmentsFreed += O.SegmentsFreed;
    DurationNanos += O.DurationNanos;
    BarriersExecuted += O.BarriersExecuted;
    BarriersElided += O.BarriersElided;
    Phases.accumulate(O.Phases);
  }
};

/// Statistics of one scope-close evacuation (Heap::closeScope). A scope
/// close is deliberately NOT a collection — it does not bump
/// GcTotals::Collections, CollectionIndex, or the per-generation
/// survival history — so its counters live in their own record rather
/// than in GcStats. The shared machinery (forwarding, the guardian
/// fixpoint, weak-pair breaking) still fills the same kinds of
/// counters, with "evacuated" in place of "copied".
struct ScopeCloseStats {
  unsigned Depth = 0; ///< The scope that was closed (1 = outermost).

  uint64_t ObjectsEvacuated = 0; ///< Graduated into the enclosing extent.
  uint64_t BytesEvacuated = 0;
  /// Bytes the scope had bump-allocated when it closed (its from-space
  /// extent). BytesInScope - BytesEvacuated died without being traced.
  uint64_t BytesInScope = 0;
  uint64_t SegmentsFreed = 0;

  /// Guardian bookkeeping over the scope's own protected list (the
  /// Section 4 fixpoint, run at scope exit).
  uint64_t ProtectedEntriesVisited = 0;
  uint64_t GuardianObjectsSaved = 0;
  uint64_t ProtectedEntriesKept = 0;
  uint64_t GuardianEntriesDropped = 0;
  uint64_t GuardianLoopIterations = 0;

  uint64_t WeakPairsExamined = 0;
  uint64_t WeakPointersBroken = 0;
  uint64_t FinalizerThunksRun = 0;
  uint64_t SymbolsDropped = 0;

  uint64_t DurationNanos = 0;
};

/// Running totals across every scope open/close of a heap. Mirrors the
/// GcTotals discipline: merge() must cover every field (cross-shard
/// aggregation in tools/loadgen).
struct ScopeTotals {
  uint64_t ScopesOpened = 0;
  uint64_t ScopesClosed = 0;
  uint64_t MaxDepth = 0; ///< Deepest nesting seen (max-merged).
  uint64_t ObjectsEvacuated = 0;
  uint64_t BytesEvacuated = 0;
  uint64_t BytesInScopes = 0;
  /// BytesInScopes - BytesEvacuated: request-local garbage reclaimed at
  /// scope exits without ever being traced by a collection.
  uint64_t BytesReclaimed = 0;
  uint64_t SegmentsFreed = 0;
  uint64_t GuardianObjectsSaved = 0;
  uint64_t WeakPointersBroken = 0;
  uint64_t SymbolsDropped = 0;
  uint64_t CloseNanos = 0;

  void accumulate(const ScopeCloseStats &S) {
    ++ScopesClosed;
    if (S.Depth > MaxDepth)
      MaxDepth = S.Depth;
    ObjectsEvacuated += S.ObjectsEvacuated;
    BytesEvacuated += S.BytesEvacuated;
    BytesInScopes += S.BytesInScope;
    BytesReclaimed += S.BytesInScope - S.BytesEvacuated;
    SegmentsFreed += S.SegmentsFreed;
    GuardianObjectsSaved += S.GuardianObjectsSaved;
    WeakPointersBroken += S.WeakPointersBroken;
    SymbolsDropped += S.SymbolsDropped;
    CloseNanos += S.DurationNanos;
  }

  void merge(const ScopeTotals &O) {
    ScopesOpened += O.ScopesOpened;
    ScopesClosed += O.ScopesClosed;
    if (O.MaxDepth > MaxDepth)
      MaxDepth = O.MaxDepth;
    ObjectsEvacuated += O.ObjectsEvacuated;
    BytesEvacuated += O.BytesEvacuated;
    BytesInScopes += O.BytesInScopes;
    BytesReclaimed += O.BytesReclaimed;
    SegmentsFreed += O.SegmentsFreed;
    GuardianObjectsSaved += O.GuardianObjectsSaved;
    WeakPointersBroken += O.WeakPointersBroken;
    SymbolsDropped += O.SymbolsDropped;
    CloseNanos += O.CloseNanos;
  }
};

} // namespace gengc

#endif // GENGC_GC_GCSTATS_H
