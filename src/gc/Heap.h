//===- gc/Heap.h - The mutator-facing heap --------------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Heap owns the segmented arena, per-(space, generation) allocation
/// contexts, roots, remembered sets, the guardian protected lists, and
/// the collection policy. It is the single public entry point for
/// allocation, mutation (write-barriered), guardian registration and
/// retrieval, and collection.
///
/// GC safety contract for C++ callers: the collector moves objects, so a
/// raw Value must not be held across any call that can allocate or
/// collect. Wrap long-lived values in Root or RootVector (gc/Roots.h);
/// the collector updates registered slots in place.
///
/// Collections happen only at safepoints: explicit collect() calls, or
/// the start of a public allocation entry point when the automatic
/// policy's budget is exhausted. A single Heap call never observes a
/// collection mid-way through its own internal allocations.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_HEAP_H
#define GENGC_GC_HEAP_H

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gc/GcStats.h"
#include "gc/HeapConfig.h"
#include "gc/telemetry/AllocProfiler.h"
#include "gc/telemetry/Telemetry.h"
#include "heap/Arena.h"
#include "heap/SharedImmutableSpace.h"
#include "heap/SpaceContext.h"
#include "object/Layout.h"
#include "object/Value.h"
#include "support/PtrHashSet.h"

namespace gengc {

class Collector;
class NoGcScope;
class RootVector;
struct HeapCensus;
struct ScopedGeneration;

/// Why an unbarriered store is sound — the claim a caller makes when it
/// uses one of the Heap::*Elided fast paths. The claim is established
/// statically (scheme/BarrierAnalysis.h, or a heap/VM-internal
/// invariant) and, with HeapConfig::VerifyElision, dynamically
/// re-checked at every elided store.
enum class StoreElision : uint8_t {
  /// The container was allocated on this path with no intervening
  /// safepoint, so it is still in generation 0 and no store into it can
  /// create an old-to-young edge.
  Initializing,
  /// The stored value is a non-pointer immediate; no edge is created
  /// regardless of the container's generation.
  Immediate,
};

/// Maximum supported generation count.
constexpr unsigned MaxGenerations = 8;
/// Maximum supported tenure-copy count (HeapConfig::TenureCopies).
constexpr unsigned MaxTenureCopies = 4;

class Heap {
public:
  explicit Heap(HeapConfig Config = HeapConfig());
  ~Heap();

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  const HeapConfig &config() const { return Cfg; }
  /// The paper's n: the oldest generation number.
  unsigned oldestGeneration() const { return Cfg.Generations - 1; }

  //===------------------------------------------------------------------===//
  // Allocation. All constructors are safepoints (automatic collection may
  // run before — never during — the construction).
  //===------------------------------------------------------------------===//

  /// Allocates an ordinary pair.
  Value cons(Value Car, Value Cdr);
  /// Allocates a weak pair: the car is a weak pointer, the cdr is normal
  /// (Section 2; MultiScheme's weak pairs).
  Value weakCons(Value Car, Value Cdr);
  /// Allocates a vector of \p Length slots, each initialized to \p Fill.
  Value makeVector(size_t Length, Value Fill);
  /// Allocates an immutable string with the given contents.
  Value makeString(std::string_view Contents);
  /// Allocates a zero-filled bytevector of \p Length bytes.
  Value makeBytevector(size_t Length);
  /// Allocates a flonum.
  Value makeFlonum(double D);
  /// Allocates a one-slot mutable box.
  Value makeBox(Value V);
  /// Allocates a record with \p FieldCount slots, slot 0 set to \p Tag
  /// and the rest to \p Fill.
  Value makeRecord(Value Tag, size_t FieldCount, Value Fill);
  /// Allocates an interpreter closure.
  Value makeClosure(Value Clauses, Value Env, Value Name);
  /// Allocates a primitive-procedure descriptor.
  Value makePrimitive(intptr_t Index, intptr_t MinArgs, intptr_t MaxArgs,
                      Value Name);
  /// Allocates a port handle referencing external port state \p PortId.
  Value makePortHandle(intptr_t PortId, intptr_t Direction);
  /// Interns \p Name, returning the unique symbol for it. With
  /// HeapConfig::WeakSymbolTable, symbols kept alive only by the intern
  /// table are reclaimed at collection time and re-interned on demand.
  Value intern(std::string_view Name);
  /// Returns the interned symbol's name as a std::string.
  std::string symbolName(Value Symbol) const;
  /// Makes an uninterned symbol (gensym).
  Value makeUninternedSymbol(std::string_view Name);

  /// Builds a list from \p Elements (convenience; roots intermediates
  /// internally).
  Value makeList(const std::vector<Value> &Elements);

  //===------------------------------------------------------------------===//
  // Barriered mutation. These maintain the remembered sets that make the
  // collector generational.
  //===------------------------------------------------------------------===//

  void setCar(Value Pair, Value V);
  void setCdr(Value Pair, Value V);
  void vectorSet(Value Vector, size_t Index, Value V);
  void boxSet(Value Box, Value V);
  void recordSet(Value Record, size_t Index, Value V);
  void objectFieldSet(Value Object, size_t Index, Value V);

  //===------------------------------------------------------------------===//
  // Elided (unbarriered) mutation. The compile-time barrier-elision fast
  // paths: each skips writeBarrier entirely on the strength of the
  // StoreElision claim, which HeapConfig::VerifyElision dynamically
  // re-checks (aborting with an "unsound barrier elision" diagnostic on
  // violation). Callers must hold a claim that is true at the store —
  // an Initializing claim expires at the next safepoint, because any
  // allocation can promote the fresh container out of generation 0.
  //===------------------------------------------------------------------===//

  void setCarElided(Value Pair, Value V, StoreElision Claim);
  void setCdrElided(Value Pair, Value V, StoreElision Claim);
  void vectorSetElided(Value Vector, size_t Index, Value V,
                       StoreElision Claim);
  void recordSetElided(Value Record, size_t Index, Value V,
                       StoreElision Claim);

  /// The VM frame-construction fast path: fills of a vector allocated
  /// on this path with no intervening safepoint.
  void vectorSetInitializing(Value Vector, size_t Index, Value V) {
    vectorSetElided(Vector, Index, V, StoreElision::Initializing);
  }
  void recordSetInitializing(Value Record, size_t Index, Value V) {
    recordSetElided(Record, Index, V, StoreElision::Initializing);
  }

  /// Monotonic mutator store-tax counters: stores that took the full
  /// writeBarrier path vs stores a *Elided path proved barrier-free.
  /// Per-collection window deltas land in GcStats::BarriersExecuted /
  /// BarriersElided.
  uint64_t barriersExecuted() const { return BarriersExecutedTotal; }
  uint64_t barriersElided() const { return BarriersElidedTotal; }

  //===------------------------------------------------------------------===//
  // Inspection.
  //===------------------------------------------------------------------===//

  /// Generation of a heap value (0 for non-heap values).
  unsigned generationOf(Value V) const;
  /// True if \p V is a pair allocated in the weak-pair space.
  bool isWeakPair(Value V) const;
  /// True if \p V is an ordinary (non-weak) pair.
  bool isOrdinaryPair(Value V) const {
    return V.isPair() && !isWeakPair(V);
  }
  /// Space a heap value lives in.
  SpaceKind spaceOf(Value V) const;
  /// True if \p V lives in the shared immutable space.
  bool isShared(Value V) const {
    return V.isHeapPointer() && segInfo(V.heapAddress()).isShared();
  }

  /// Segment info for any heap address this heap can reference: its
  /// private arena, or the exchange arena (shared immutable segments and
  /// donated segments, which adoption makes part of this heap's
  /// generation 0). The single classification point every
  /// barrier/collector path routes through.
  const SegmentInfo &segInfo(uintptr_t Address) const {
    if (Segments.containsAddress(Address))
      return Segments.infoFor(Address);
    return exchangeInfo(Address);
  }
  SegmentInfo &segInfo(uintptr_t Address) {
    return const_cast<SegmentInfo &>(
        static_cast<const Heap *>(this)->segInfo(Address));
  }

  /// The exchange domain this heap donates into and adopts from
  /// (HeapConfig::Exchange, resolved at construction).
  SharedImmutableSpace &exchange() const { return *Exchange; }

  //===------------------------------------------------------------------===//
  // Zero-copy segment donation (gc/Donation.cpp; DESIGN.md §14): the
  // one way a value crosses shards (runtime/Shard.h's sendValue).
  //===------------------------------------------------------------------===//

  /// Evacuates the object graph rooted at \p Root into fresh sealed
  /// donation segments of the exchange arena and returns the handle.
  /// The sender's graph is left untouched (the copy-out uses a side
  /// map, not forwarding markers); symbols transfer by name as fixups;
  /// shared-immutable references are kept as-is. A closure, primitive,
  /// port handle or guardian is written as #f and counted under
  /// TransferPolicy::Sever; under Reject the runs taken so far go back
  /// to the exchange arena and the returned handle has a null Domain.
  /// Not a safepoint.
  DonatedGraph donateGraph(Value Root,
                           TransferPolicy Policy = TransferPolicy::Reject);

  /// Adopts \p Graph: re-interns its symbol fixups, retags its segments
  /// to this heap's generation 0 (age 0), appends the runs to the
  /// adopted space, charges their footprint against the generation-0
  /// collection budget, and returns the graph's root. Every collection
  /// evacuates the survivors and returns the segments to the exchange
  /// arena. Empties the handle. May collect (symbol interning is a
  /// safepoint), but only before the graph becomes reachable.
  Value adoptDonatedGraph(DonatedGraph &Graph);

  /// Opens a donation scope: like openScope(), but the scope's nursery
  /// segments are allocated in the exchange arena, pre-tagged
  /// FlagDonated, so a fully self-contained scope can be donated
  /// wholesale at close — zero copies, O(segments) retagging.
  void openDonationScope();

  /// Attempts the wholesale close of the innermost scope (which must be
  /// a donation scope): if nothing escaped, no root or guardian still
  /// reaches into the scope, and a read-only scan proves the scope
  /// self-contained (every outbound edge immediate / shared / symbol),
  /// the scope's segments are sealed and handed over as a DonatedGraph
  /// rooted at \p Root, and the scope is popped. Returns an empty
  /// handle (Domain == nullptr) WITHOUT closing the scope when any
  /// check fails — the caller falls back to closeScope() + donateGraph.
  DonatedGraph tryCloseScopeDonating(Value Root);

  /// Monotonic donation counters (runtime transfer reports).
  uint64_t graphsDonated() const { return GraphsDonatedTotal; }
  uint64_t graphsAdopted() const { return GraphsAdoptedTotal; }
  uint64_t segmentsDonated() const { return SegmentsDonatedTotal; }
  uint64_t bytesDonated() const { return BytesDonatedTotal; }
  uint64_t scopesDonatedWholesale() const { return ScopesDonatedTotal; }

  /// Exchange segments this heap currently holds as adopted runs (they
  /// return to the exchange arena at the next collection). With the
  /// in-flight handles a caller tracks itself, this accounts for every
  /// donated segment a single-heap test owns — the fuzzer's ownership
  /// audit.
  size_t adoptedSegments() const {
    size_t N = 0;
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
      for (const SegmentRun &R : AdoptedRuns[Sp])
        N += R.SegmentCount;
    return N;
  }

  //===------------------------------------------------------------------===//
  // Guardians (the paper's Section 3 interface, lowered to the Section 4
  // tconc representation). core/Guardian.h provides the ergonomic
  // wrapper.
  //===------------------------------------------------------------------===//

  /// Creates the tconc queue representing a new guardian:
  /// (let ([z (cons #f '())]) (cons z z)).
  Value makeGuardianTconc();
  /// Registers \p Obj with the guardian: adds an (object, tconc) entry to
  /// the protected list for generation 0.
  void guardianProtect(Value Tconc, Value Obj);
  /// The Section 5 generalization: "the guardian accepts an agent in
  /// addition to the object ... Rather than returning the object when it
  /// becomes inaccessible, the guardian returns the agent. Since the
  /// agent can be the object itself, this subsumes the simpler
  /// interface." With a distinct agent the object itself is discarded
  /// ("objects to be discarded if something less than the object is
  /// needed to perform the finalization"); the agent is retained for the
  /// lifetime of the registration.
  void guardianProtectWithAgent(Value Tconc, Value Obj, Value Agent);
  /// Retrieves one object from the guardian's inaccessible group
  /// (Figure 4 protocol), or #f if the group is empty.
  Value guardianRetrieve(Value Tconc);
  /// True if the guardian has at least one retrievable object.
  bool guardianHasPending(Value Tconc) const;
  /// Creates a first-class guardian object (used by the Scheme layer).
  Value makeGuardianObject();

  //===------------------------------------------------------------------===//
  // register-for-finalization (Dickey's mechanism, Section 2). Kept as a
  // faithfully-restricted baseline: the thunk runs during collection and
  // must not allocate; the object itself is *not* preserved.
  //===------------------------------------------------------------------===//

  using FinalizerThunk = std::function<void()>;
  /// Registers \p Thunk to be run by the collector once \p Obj is proven
  /// inaccessible. Returns a registration id.
  uint32_t registerForFinalization(Value Obj, FinalizerThunk Thunk);

  //===------------------------------------------------------------------===//
  // Request-scoped ephemeral generations (gc/ScopedGeneration.h,
  // DESIGN.md §13). Scopes nest LIFO: openScope() redirects all mutator
  // allocation into a fresh scope-private nursery, closeScope() runs the
  // scope-local evacuation — escaping objects graduate into the
  // enclosing extent, the rest die untraced.
  //===------------------------------------------------------------------===//

  /// Opens a new innermost scope. Not a safepoint.
  void openScope();
  /// Closes the innermost scope (asserts one is open). Runs the
  /// evacuation, the scope's guardian fixpoint, the weak/symbol passes,
  /// and frees (optionally poisons) the scope's segments.
  void closeScope();
  /// Number of currently open scopes (0 = ordinary heap only).
  unsigned scopeDepth() const {
    return static_cast<unsigned>(ScopeStack.size());
  }
  /// Scope that owns \p V: 0 for ordinary heap values and non-pointers,
  /// d > 0 for values allocated in the d-th open scope.
  unsigned scopeDepthOf(Value V) const;

  /// Statistics of the most recent closeScope() and running totals
  /// across all of them (scope closes are not collections and do not
  /// appear in totals()).
  const ScopeCloseStats &lastScopeClose() const { return LastScopeClose; }
  const ScopeTotals &scopeTotals() const { return ScopeTotalsRec; }

  /// Hook invoked after every closeScope() with that close's
  /// statistics, under the same contract as post-GC hooks (may read the
  /// heap; must not open/close scopes or collect). Used by the
  /// model-differential fuzzer to cross-check every scope exit.
  using ScopeCloseHook = std::function<void(Heap &, const ScopeCloseStats &)>;
  void setScopeCloseHook(ScopeCloseHook Hook) {
    CloseScopeHook = std::move(Hook);
  }

  //===------------------------------------------------------------------===//
  // Collection.
  //===------------------------------------------------------------------===//

  /// Collects generations 0..MaxGeneration (clamped to the oldest).
  void collect(unsigned MaxGeneration);
  void collectMinor() { collect(0); }
  void collectFull() { collect(oldestGeneration()); }

  /// Explicit safepoint: runs a pending automatic collection if the
  /// allocation budget has been exhausted.
  void safepoint() { pollSafepoint(); }

  /// Handler invoked after every *automatic* collection, mirroring Chez
  /// Scheme's collect-request-handler. Typical use: draining guardians.
  void setCollectRequestHandler(std::function<void(Heap &)> Handler) {
    CollectRequestHandler = std::move(Handler);
  }

  /// Hook invoked after every collection (automatic or explicit) with
  /// that collection's statistics, in registration order. Contract: a
  /// hook may read the heap and may allocate (the statistics snapshot
  /// it receives is the completed collection's), but automatic
  /// collection is deferred while hooks run — a hook's allocations can
  /// never trigger a nested collection — and a hook must not call
  /// collect() itself.
  void addPostGcHook(std::function<void(Heap &, const GcStats &)> Hook) {
    PostGcHooks.push_back(std::move(Hook));
  }

  const GcStats &lastStats() const { return LastStats; }
  const GcTotals &totals() const { return Totals; }
  uint64_t collectionCount() const { return Totals.Collections; }

  //===------------------------------------------------------------------===//
  // Observability (gc/telemetry/).
  //===------------------------------------------------------------------===//

  GcTelemetry &telemetry() { return Telemetry; }
  const GcTelemetry &telemetry() const { return Telemetry; }

  /// The sampled allocation-site profiler (disabled unless
  /// HeapConfig::ProfileSampleBytes or GENGC_GC_PROFILE armed it).
  AllocProfiler &allocProfiler() { return Profiler; }
  const AllocProfiler &allocProfiler() const { return Profiler; }

  /// Toggles the one-line post-GC reporter at runtime (the Scheme
  /// primitive (collect-notify bool)).
  void setCollectNotify(bool On) { Telemetry.LogEnabled = On; }
  bool collectNotify() const { return Telemetry.LogEnabled; }

  /// Survival rate (bytes copied / bytes in from-space) of generation
  /// \p Generation over the recorded history window; negative when no
  /// collection of that generation is in the window.
  double survivalRate(unsigned Generation) const {
    return Telemetry.survivalRate(Generation);
  }

  /// Cumulative bytes the mutator has ever allocated (monotonic;
  /// unaffected by collection, unlike liveBytes()).
  uint64_t totalBytesAllocated() const { return TotalBytesAllocated; }

  /// Walks the whole heap and returns per-(generation, space) occupancy
  /// plus an object histogram (gc/telemetry/Census.h). Must be called
  /// outside a collection; allocates nothing on the heap.
  HeapCensus census() const;

  /// Live heap bytes (words in use across all contexts).
  size_t liveBytes() const;
  size_t segmentsInUse() const { return Segments.segmentsInUse(); }

  /// Per-generation occupancy snapshot.
  struct GenerationUsage {
    size_t SegmentCount = 0;
    size_t UsedBytes = 0;
  };
  /// Usage of generation \p Generation across all spaces and ages.
  GenerationUsage generationUsage(unsigned Generation) const;

  //===------------------------------------------------------------------===//
  // Roots.
  //===------------------------------------------------------------------===//

  /// Registers \p Slot as a root; the collector forwards it in place.
  void addRoot(Value *Slot);
  void removeRoot(Value *Slot);
  void addRootVector(RootVector *Vec);
  void removeRootVector(RootVector *Vec);

  /// External-root handoff hook. A scanner enumerates Value slots that
  /// live in caller-owned storage (a session table, a shard's staging
  /// area) by invoking the visitor once per slot; the collector calls
  /// every registered scanner during the root phase and forwards the
  /// visited slots in place, exactly like Root/RootVector slots. This
  /// lets bulk structures register one scanner instead of copying every
  /// element into a RootVector. The scanner runs inside the collector:
  /// it must visit slots only — no allocation, no heap reads beyond the
  /// slots themselves — and the slot storage must stay stable for as
  /// long as the scanner is registered. Returns an id for removal.
  using RootVisitor = std::function<void(Value *)>;
  using ExternalRootScanner = std::function<void(const RootVisitor &)>;
  uint32_t addExternalRootScanner(ExternalRootScanner Scanner);
  void removeExternalRootScanner(uint32_t Id);

  //===------------------------------------------------------------------===//
  // Owner-thread affinity (HeapConfig::CheckThreadAffinity).
  //===------------------------------------------------------------------===//

  /// Rebinds the heap to the calling thread. Used at exactly one point
  /// by the shard runtime: a heap constructed on a coordinator thread is
  /// bound to its worker before the worker touches it. Must not be
  /// called while another thread still uses the heap.
  void bindToCurrentThread() { OwnerThread = std::this_thread::get_id(); }

  /// True if the calling thread is the heap's owner.
  bool onOwnerThread() const {
    return std::this_thread::get_id() == OwnerThread;
  }

  //===------------------------------------------------------------------===//
  // Verification (debugging / tests).
  //===------------------------------------------------------------------===//

  /// Walks the entire heap checking structural invariants: valid tags,
  /// all pointers land on object starts in live segments, weak-pair cars
  /// are live-or-#f, and every old-to-young pointer is covered by a
  /// remembered set. Aborts with a diagnostic on failure.
  void verifyHeap();

  /// Number of protected-list entries currently parked in generation
  /// \p Generation (test/bench introspection).
  size_t protectedEntriesInGeneration(unsigned Generation) const {
    GENGC_ASSERT(Generation < Cfg.Generations, "bad generation");
    return Protected[Generation].size();
  }

  /// Depth of active NoGcScope handles (gc/NoGcScope.h). While nonzero,
  /// any allocation or collection trips a GENGC_ASSERT.
  unsigned noGcScopeDepth() const { return NoGcScopeDepth; }

  //===------------------------------------------------------------------===//
  // Fuzzing hooks (src/testing/, tools/gcfuzz/).
  //===------------------------------------------------------------------===//

  /// Forwarding witness: invoked by the collector for every object it
  /// copies, with the value bits before and after the copy. This gives
  /// the model-differential fuzzer stable object identity across moving
  /// collections without rooting anything (rooting would change the
  /// liveness being tested). Within one collection old addresses cannot
  /// alias new ones (from-space is only reclaimed at the end), so the
  /// (Old -> New) pairs of a cycle form a map. The callback runs inside
  /// the collector: it must not touch the heap.
  using ForwardWitnessFn = void (*)(void *Ctx, uintptr_t OldBits,
                                    uintptr_t NewBits);
  void setForwardWitness(ForwardWitnessFn Fn, void *Ctx) {
    ForwardWitness = Fn;
    ForwardWitnessCtx = Ctx;
  }

private:
  friend class Collector;
  friend class NoGcScope;
  friend class RootVector;
  friend struct ScopedGeneration;

  /// An (object, guardian-tconc) entry of a protected list. The paper
  /// encodes entries as heap pairs; a plain struct is semantically
  /// identical and keeps the lists outside the traced heap, matching
  /// "the protected lists themselves are not forwarded during
  /// collection".
  struct ProtectedEntry {
    uintptr_t ObjectBits;
    uintptr_t TconcBits;
    /// Section 5 agent; equals ObjectBits for plain registrations. The
    /// agent (unlike the object) is kept alive by the registration and
    /// is what the collector delivers to the tconc.
    uintptr_t AgentBits;
  };

  struct FinalizeEntry {
    uintptr_t ObjectBits;
    uint32_t ThunkId;
  };

  /// Allocation primitive: bump-allocates words in (Space, generation 0,
  /// age 0). Never collects; asserts the no-allocation rule inside
  /// finalizer thunks.
  uintptr_t *allocateRaw(SpaceKind Space, size_t Words);
  /// Collector-only allocation directly into (\p Generation, \p Age).
  uintptr_t *allocateInGeneration(SpaceKind Space, unsigned Generation,
                                  unsigned Age, size_t Words);

  Value consRaw(Value Car, Value Cdr);
  Value makeStringRaw(std::string_view Contents);
  Value makeSymbolRaw(Value NameString);

  /// Runs a pending automatic collection if due. Called at the start of
  /// public allocation entry points.
  void pollSafepoint();
  unsigned chooseAutomaticGeneration();

  /// Aborts with a diagnostic naming \p Op if affinity checking is on
  /// and the calling thread is not the heap's owner.
  void checkOwner(const char *Op) const;

  /// Write barrier for a store of \p V into \p Container. \p WeakField
  /// marks stores into a weak pair's car, which go to the weak remembered
  /// set (the pointer is weak, so it is not a root, but the collector
  /// must find it to update or break it).
  void writeBarrier(Value Container, Value V, bool WeakField);

  /// Slow tail of writeBarrier taken only while scopes are open: stores
  /// of a deeper-scope value into a shallower container record the
  /// container in the deeper scope's escape set; everything else falls
  /// back to the generational logic.
  void scopeBarrier(Value Container, Value V, bool WeakField);

  /// The protected list an entry with the given participants parks on:
  /// the deepest open scope any participant lives in, else the
  /// generation-0 list (guardianProtect) / the youngest participant
  /// generation (collector re-parking computes that itself).
  std::vector<ProtectedEntry> &protectedListFor(Value Obj, Value Tconc,
                                                Value Agent);

  /// Bookkeeping shared by every *Elided store: counts the elision and,
  /// under HeapConfig::VerifyElision, re-checks \p Claim against the
  /// actual container generation / value tag, aborting on violation.
  void elidedStore(Value Container, Value V, StoreElision Claim);

  /// Out-of-line tail of segInfo() for exchange-arena addresses (needs
  /// the SharedImmutableSpace definition). Asserts containment.
  const SegmentInfo &exchangeInfo(uintptr_t Address) const;

  HeapConfig Cfg;
  Arena Segments;
  /// The exchange domain (never null after construction).
  SharedImmutableSpace *Exchange = nullptr;
  /// Allocation contexts, indexed by space, generation, and tenure age.
  /// Mutator allocation uses age 0; the collector copies survivors into
  /// age Age+1 of the same generation until the tenure policy promotes
  /// them to (generation + 1, age 0).
  SpaceContext Contexts[NumSpaces][MaxGenerations][MaxTenureCopies];

  std::vector<Value *> RootSlots;
  std::vector<RootVector *> RootVectors;
  std::vector<std::pair<uint32_t, ExternalRootScanner>> ExternalRootScanners;
  uint32_t NextExternalScannerId = 0;

  /// The thread every heap operation must run on (the constructing
  /// thread, until bindToCurrentThread() moves ownership).
  std::thread::id OwnerThread;

  /// Remembered sets: per generation, objects that may contain strong
  /// pointers into younger generations.
  PtrHashSet Remembered[MaxGenerations];
  /// Weak pairs whose (weak) car may point into a younger generation.
  PtrHashSet WeakRemembered[MaxGenerations];

  /// The collector's protected lists, one per generation (Section 4).
  std::vector<ProtectedEntry> Protected[MaxGenerations];

  /// Adopted donation runs, per space: exchange-arena segments this heap
  /// received through adoptDonatedGraph, retagged to generation 0.
  /// Logically part of generation 0; every collection evacuates their
  /// survivors into the private arena and returns the segments to the
  /// exchange arena, as does the destructor.
  std::vector<SegmentRun> AdoptedRuns[NumSpaces];

  /// Monotonic donation counters (graphsDonated() etc.).
  uint64_t GraphsDonatedTotal = 0;
  uint64_t GraphsAdoptedTotal = 0;
  uint64_t SegmentsDonatedTotal = 0;
  uint64_t BytesDonatedTotal = 0;
  uint64_t ScopesDonatedTotal = 0;

  /// Open request scopes, innermost last (gc/ScopedGeneration.h). While
  /// non-empty, allocateRaw redirects into the innermost scope's
  /// contexts and the write barrier routes cross-scope stores to escape
  /// sets before the generational logic.
  std::vector<std::unique_ptr<ScopedGeneration>> ScopeStack;
  ScopeCloseStats LastScopeClose;
  ScopeTotals ScopeTotalsRec;
  ScopeCloseHook CloseScopeHook;
  /// GcFaultInjection::LeakScopeEscape fires once per heap.
  bool ScopeLeakFired = false;

  /// register-for-finalization entries, one list per generation.
  std::vector<FinalizeEntry> FinalizeLists[MaxGenerations];
  std::vector<FinalizerThunk> FinalizerThunks;

  std::unordered_map<std::string, uintptr_t> SymbolTable;

  std::function<void(Heap &)> CollectRequestHandler;
  std::vector<std::function<void(Heap &, const GcStats &)>> PostGcHooks;

  ForwardWitnessFn ForwardWitness = nullptr;
  void *ForwardWitnessCtx = nullptr;

  GcStats LastStats;
  GcTotals Totals;
  GcTelemetry Telemetry;
  AllocProfiler Profiler;

  /// Monotonic barrier-traffic counters (barriersExecuted()/
  /// barriersElided()) plus the values at the end of the last
  /// collection, from which Collector::run derives the per-collection
  /// window deltas recorded in GcStats.
  uint64_t BarriersExecutedTotal = 0;
  uint64_t BarriersElidedTotal = 0;
  uint64_t BarriersExecutedAtGc = 0;
  uint64_t BarriersElidedAtGc = 0;
  /// GcFaultInjection::UnsoundElision fires once per heap.
  bool UnsoundElisionFired = false;

  size_t BytesSinceGc = 0;
  /// Cumulative mutator allocation (totalBytesAllocated()).
  uint64_t TotalBytesAllocated = 0;
  uint64_t AutomaticCollections = 0;
  /// Allocation safepoints seen since the last stress collection.
  unsigned SafepointsSinceStress = 0;
  /// Active NoGcScope handles; allocation asserts while nonzero.
  unsigned NoGcScopeDepth = 0;
  bool GcPending = false;
  bool InGc = false;
  bool NoAllocMode = false;
  /// Guards against safepoint recursion: a collect-request handler that
  /// allocates would otherwise re-enter pollSafepoint and (under
  /// StressGC's per-allocation trigger) recurse without bound.
  bool InSafepointCollection = false;
  /// Post-GC hooks may allocate; while they run, safepoints never start
  /// a collection (which would clobber the LastStats snapshot the hooks
  /// are reading) and explicit collect() calls assert.
  bool InPostGcHooks = false;
};

} // namespace gengc

#endif // GENGC_GC_HEAP_H
