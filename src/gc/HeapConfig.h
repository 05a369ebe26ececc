//===- gc/HeapConfig.h - Heap and collector configuration -----*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tunable parameters. The paper notes that "the number of generations
/// and the promotion and tenure strategies supported by the collector are
/// under programmer control" but assumes the simple strategy this
/// collector implements: survivors of a collection of generation g move
/// to g+1 (capped at the oldest generation), and collecting g collects
/// all younger generations too.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_HEAPCONFIG_H
#define GENGC_GC_HEAPCONFIG_H

#include <cstddef>
#include <cstdint>

/// Build-time default for HeapConfig::StressGC (and fromspace
/// poisoning). The GENGC_STRESS CMake option defines this to 1 so an
/// entire build — including the test suite — runs collect-on-every-
/// allocation without touching any call site.
#ifndef GENGC_STRESS_DEFAULT
#define GENGC_STRESS_DEFAULT 0
#endif

namespace gengc {

class SharedImmutableSpace;

/// Word written over every evacuated (from-space) segment when
/// HeapConfig::PoisonFromSpace is on. The low tag bits (0b111) are not a
/// valid Value tag, and interpreting the pattern as a pointer lands far
/// outside any plausible mapping, so a stale pointer dereference faults
/// or trips a tag assert deterministically instead of reading whatever
/// the next collection happened to leave behind.
constexpr uintptr_t FromSpacePoisonPattern = 0xDEADBEEFDEADBEEFull;

/// Test-only fault injection (HeapConfig::InjectedFault), used by the
/// model-differential fuzzer (src/testing/, tools/gcfuzz/) to prove the
/// oracle actually catches collector bugs. Both faults are memory-safe
/// by construction — they corrupt the *semantics* (liveness and
/// weak-pointer answers), never the heap structure — so the fuzzer
/// reports a clean divergence instead of crashing.
enum class GcFaultInjection : uint8_t {
  None = 0,
  /// processGuardians silently drops the first resurrection of every
  /// collection: the guarded object is neither forwarded nor
  /// delivered, so a model-live object is reclaimed.
  DropFirstResurrection,
  /// fixWeakCar breaks weak cars whose target was copied (i.e. is
  /// live), inverting the paper's update-vs-break rule.
  BreakLiveWeakCar,
  /// The first vectorSet that genuinely needs a remembered-set entry
  /// (old container, younger pointer value) is deliberately
  /// mis-classified as an initializing store and skips the write
  /// barrier. With HeapConfig::VerifyElision the dynamic soundness
  /// verifier aborts at the store; without it, the missing old-to-young
  /// remembered entry is caught by Heap::verifyHeap / the fuzz oracle.
  UnsoundElision,
  /// The first closeScope drops one recorded escape: the first container
  /// in the closing scope's escape set has its into-scope strong fields
  /// cleared to #f instead of being scanned, exactly as if the write
  /// barrier had lost the escape record. The object the container kept
  /// alive dies in the evacuation while the shadow model keeps it — a
  /// clean, memory-safe divergence the oracle must catch and shrink.
  LeakScopeEscape,
  /// DonatedGraph destructors skip freeing their exchange-arena runs:
  /// a dropped (never-adopted) donation leaks its segments. The fuzz
  /// runner's exchange-ownership audit — donated segments in use must
  /// equal in-flight plus adopted — must catch and shrink it.
  LeakDonatedSegment,
};

struct HeapConfig {
  /// Virtual address space reserved for the heap; also the hard heap
  /// size limit. Committed lazily.
  size_t ArenaBytes = 512u * 1024 * 1024;

  /// Number of generations, numbered 0 (youngest) through
  /// Generations - 1 (the paper's generation n).
  unsigned Generations = 4;

  /// Automatic collection fires once this many bytes have been allocated
  /// in generation 0 (checked at allocation safepoints).
  size_t Gen0CollectBytes = 1u * 1024 * 1024;

  /// Automatic collection of generation g happens every
  /// CollectionRadix^g automatic collections ("the older the generation,
  /// the less frequently it is collected").
  unsigned CollectionRadix = 4;

  /// Tenure policy ("the promotion and tenure strategies supported by
  /// the collector are under programmer control"): an object must be
  /// copied this many times within its generation before it is promoted
  /// to the next one. 1 reproduces the paper's simple strategy
  /// (survivors of a collection of generation g move to g+1); larger
  /// values delay promotion, trading extra copying for less premature
  /// tenuring.
  unsigned TenureCopies = 1;

  /// Whether allocation safepoints may trigger collection automatically.
  /// Tests that need precise control disable this and call collect()
  /// explicitly.
  bool AutoCollect = true;

  /// Owner-thread affinity checking. A Heap is single-threaded by
  /// contract: the shard-per-thread runtime (src/runtime/) gives every
  /// worker its own private heap, and nothing in the collector is
  /// prepared for concurrent mutation. With this flag on (the default —
  /// the check is two word compares), every allocation, collection,
  /// root registration, guardian operation, and barriered store asserts
  /// that it runs on the thread that constructed the heap (or the one
  /// that last called Heap::bindToCurrentThread), so cross-shard misuse
  /// aborts at the faulting call instead of corrupting a heap.
  bool CheckThreadAffinity = true;

  /// Maximum nesting depth of request-scoped ephemeral generations
  /// (Heap::openScope / DESIGN.md §13). Scope depth is tracked per
  /// segment in a uint8_t, so the hard ceiling is 255; the default is a
  /// sanity bound — scopes model request extents, not recursion.
  unsigned MaxScopeDepth = 8;

  //===------------------------------------------------------------------===//
  // Zero-copy inter-shard transfer (heap/SharedImmutableSpace.h,
  // runtime/PinnedMessage.h; DESIGN.md §14).
  //===------------------------------------------------------------------===//

  /// The exchange domain this heap donates into and adopts from.
  /// nullptr — the default — resolves to the process-wide
  /// SharedImmutableSpace::process() at Heap construction; tests and the
  /// fuzzer install a private instance for isolated accounting.
  SharedImmutableSpace *Exchange = nullptr;

  /// When true, the symbol intern table holds its symbols weakly:
  /// symbols reachable only from the table are reclaimed and their
  /// entries dropped, as in Friedman and Wise's scatter-table collection
  /// (reference [6] of the paper, used by Chez Scheme for oblist
  /// entries).
  bool WeakSymbolTable = true;

  //===------------------------------------------------------------------===//
  // Correctness-stress tooling. These knobs make rooting bugs (a bare
  // Value held in a C++ local across an allocation) fail loudly and
  // deterministically instead of corrupting the heap thousands of
  // allocations later.
  //===------------------------------------------------------------------===//

  /// Forces a *full* collection at every StressInterval-th allocation
  /// safepoint, so any unrooted Value is invalidated at the earliest
  /// opportunity. Stress collections respect AutoCollect: a heap
  /// configured for manual collection (tests that need precise control
  /// over when objects move) is never stress-collected. Defaults on when
  /// the build sets GENGC_STRESS_DEFAULT (the GENGC_STRESS CMake
  /// option); the GENGC_STRESS environment variable ("1"/"0") overrides
  /// either default at Heap construction.
  bool StressGC = GENGC_STRESS_DEFAULT != 0;

  /// Collect on every Nth allocation safepoint under StressGC. 1 (the
  /// default) collects on every allocation.
  unsigned StressInterval = 1;

  /// Deliberate collector bug for fuzzer validation (see GcFaultInjection
  /// above). Always None outside tools/gcfuzz and the fuzz tests.
  GcFaultInjection InjectedFault = GcFaultInjection::None;

  /// Master switch for compile-time write-barrier elision. When on, the
  /// bytecode compiler runs BarrierAnalysis and rewrites provably
  /// initializing / provably immediate stores to unbarriered forms, and
  /// the VM and heap internals use the Heap::*Initializing fast paths
  /// for frame construction. When off, every store takes the full
  /// writeBarrier path (the elision-differential baseline).
  bool ElideBarriers = true;

  /// Dynamic soundness verifier for elided stores: every unbarriered
  /// store re-checks its claimed precondition (Initializing: the target
  /// is still in generation 0; Immediate: the value is a non-pointer)
  /// and aborts with a diagnostic on violation. Defaults on in
  /// GENGC_STRESS builds; a runtime flag (rather than a compile-time
  /// one) so Release-build tests can exercise the verifier too.
  bool VerifyElision = GENGC_STRESS_DEFAULT != 0;

  /// Fill evacuated from-space segments with FromSpacePoisonPattern at
  /// the end of every collection. Any surviving stale pointer then reads
  /// poison instead of plausible-looking dead objects. Defaults to the
  /// stress default; enabled automatically whenever StressGC is enabled
  /// through the environment.
  bool PoisonFromSpace = GENGC_STRESS_DEFAULT != 0;

  //===------------------------------------------------------------------===//
  // Observability (gc/telemetry/). Phase timing is always on; these
  // knobs gate the optional reporters, whose disabled path is a single
  // branch on a flag. The GENGC_GC_LOG and GENGC_GC_TRACE environment
  // variables override the first two at Heap construction (see
  // gc/telemetry/Telemetry.h).
  //===------------------------------------------------------------------===//

  /// One-line report to stderr after every collection (the moral
  /// equivalent of Chez Scheme's collect-notify; also toggled at
  /// runtime by (collect-notify bool) / Heap::setCollectNotify).
  bool GcLog = false;

  /// Record typed GC events (collections, phase spans, guardian
  /// resurrections, promotions, segment traffic) into the telemetry
  /// ring. GENGC_GC_TRACE=<path> additionally dumps the ring as a
  /// Chrome trace_event JSON file when the heap is destroyed.
  bool GcTrace = false;

  /// Event-ring capacity when tracing is enabled; wrapping keeps the
  /// newest events.
  size_t TelemetryRingCapacity = 4096;

  /// Per-collection statistics retained in the rolling history window
  /// that feeds the per-generation survival-rate gauges.
  size_t TelemetryHistoryDepth = 64;

  /// Pause intervals retained for minimum-mutator-utilization curves
  /// (telemetry/Mmu.h). Always on — one 16-byte append per collection;
  /// wrapping keeps the newest clips. 0 disables retention.
  size_t PauseClipCapacity = 8192;

  /// Pause SLO target: collections longer than this many nanoseconds
  /// increment GcTelemetry::SloPauseViolations (surfaced in (gc-stats)
  /// and fleet-merged). 0 disables the ledger.
  uint64_t SloMaxPauseNanos = 0;

  /// Allocation-site profiler sampling interval: one sample is taken
  /// every ~this many allocated bytes (byte-countdown in the
  /// allocation fast path; see gc/telemetry/AllocProfiler.h). 0 — the
  /// default — disables sampling entirely; the fast-path cost is then
  /// one counter subtract and an untaken branch. The GENGC_GC_PROFILE
  /// environment variable ("1" or a dump path) enables profiling at
  /// DefaultProfileSampleBytes at Heap construction;
  /// GENGC_GC_PROFILE_BYTES overrides the interval.
  size_t ProfileSampleBytes = 0;

  /// Interval used when profiling is enabled through the environment
  /// or a tool flag without an explicit rate.
  static constexpr size_t DefaultProfileSampleBytes = 64 * 1024;

  /// Sampled-object table capacity: live sampled objects tracked for
  /// survival attribution. When full, new samples still count bytes to
  /// their site but skip survival tracking.
  size_t ProfileTableCapacity = 64 * 1024;
};

} // namespace gengc

#endif // GENGC_GC_HEAPCONFIG_H
