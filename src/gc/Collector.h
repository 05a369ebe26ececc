//===- gc/Collector.h - Stop-and-copy generational collector --*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One collection cycle. "The collector performs a stop-and-copy
/// collection from the generations being collected into the target
/// generation" (Section 4). A Collector instance is created per
/// collection by Heap::collect and discarded afterwards.
///
/// Phase order, following Section 4:
///   1. detach the from-space (runs of every collected generation) and
///      flag its segments,
///   2. forward roots and the remembered sets of older generations,
///   3. Cheney-sweep the to-space contexts to a fixpoint,
///   4. process the guardian protected lists (the paper's pend-hold /
///      pend-final loop with kleene-sweep between rounds),
///   5. process register-for-finalization lists (baseline mechanism),
///   6. second pass over weak pairs — after the protected lists, "so if
///      the car field of a weak pair points to an object that has been
///      salvaged, the object will still be in the car field after
///      collection",
///   7. update the (weak) symbol table, free the from-space, run queued
///      finalizer thunks with allocation disabled.
///
/// Tenure policy: with HeapConfig::TenureCopies == 1 every survivor of a
/// collection of generation g is copied into generation min(g+1, n) —
/// the paper's simple strategy, and the to-space is a single context per
/// space. With TenureCopies == K > 1 a survivor of (generation i, age a)
/// is copied into (i, a+1) until a+1 == K promotes it to (i+1, 0), so
/// the to-space spans several (generation, age) contexts; copying can
/// then leave an object in a generation OLDER than some object it
/// points to, which the sweep re-records in the remembered sets.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_COLLECTOR_H
#define GENGC_GC_COLLECTOR_H

#include <cstdint>
#include <vector>

#include "gc/Heap.h"

namespace gengc {

struct ScopedGeneration;

class Collector {
public:
  explicit Collector(Heap &H) : H(H) {}

  /// Collects generations 0..G.
  void run(unsigned G);

  /// Closes the innermost request scope (gc/ScopedGeneration.h): the
  /// scope's segments become the from-space, survivors graduate into the
  /// enclosing scope (or the ordinary generation 0), and the scope's own
  /// guardian fixpoint, weak pass, and symbol-table pass run over the
  /// dying extent. NOT a collection: fills \p Out instead of GcStats,
  /// and bumps no collection counters. Defined in gc/ScopedGeneration.cpp.
  void runScopeClose(ScopedGeneration &Scope, ScopeCloseStats &Out);

private:
  /// Position within a SpaceContext's run list, in allocation order.
  struct SweepCursor {
    size_t RunIndex = 0;
    size_t OffsetWords = 0;
  };

  //===--- Copying --------------------------------------------------------===//

  /// The paper's forward(obj): copies a from-space object to its target
  /// (generation, age) context — preserving its space — and installs a
  /// forwarding marker; returns the (possibly pre-existing) new
  /// location. Non-heap values and objects outside the from-space are
  /// returned unchanged.
  Value forward(Value V);

  /// Target (generation, age) for a survivor of (\p Gen, \p Age) under
  /// the tenure policy.
  void targetFor(unsigned Gen, unsigned Age, unsigned &NewGen,
                 unsigned &NewAge) const;

  /// The paper's forwarded?(obj): "true when obj has been forwarded
  /// during this collection or when it resides in a generation older
  /// than those being collected". Also true for non-heap values.
  bool isForwarded(Value V) const;

  /// The paper's get-fwd-addr(obj): the forwarding address, or the
  /// object itself when it was not subject to collection.
  Value forwardedAddress(Value V) const;

  /// Survival sweep of the allocation-site profiler's sampled-object
  /// table: forwarded samples have their bits updated and credit
  /// SurvivedBytes, dead ones credit DeadBytes and leave the table.
  /// Runs while from-space is still intact (the table is not a root —
  /// sampling never keeps an object alive).
  void sweepAllocProfiler();

  void forwardSlot(Value *Slot) { *Slot = forward(*Slot); }
  void forwardWord(uintptr_t *Word) {
    *Word = forward(Value::fromBits(*Word)).bits();
  }

  //===--- Sweeping -------------------------------------------------------===//

  /// The paper's kleene-sweep(g): "iteratively sweeps copied objects
  /// until there are no newly copied objects to sweep", over every
  /// to-space context.
  void kleeneSweep();
  /// Sweeps one (space, generation, age) context from its cursor to the
  /// allocation frontier. Returns true if any object was processed.
  bool sweepContext(SpaceKind Space, unsigned Gen, unsigned Age);
  /// The shared walk under sweepContext: sweeps \p Ctx from \p Cur to
  /// its allocation frontier. Also used for the scope-close targets and
  /// the open-scope root scan, which sweep contexts outside the
  /// Contexts[][][] array.
  bool sweepRange(Arena &A, SpaceContext &Ctx, SweepCursor &Cur,
                  SpaceKind Space, unsigned ContainerGen);
  void sweepPairAt(uintptr_t *Cell, bool Weak, unsigned ContainerGen);
  void sweepTypedAt(uintptr_t *Header, unsigned ContainerGen);
  /// Re-records \p Container in the remembered set if \p FieldBits now
  /// points below ContainerGen (only possible with TenureCopies > 1).
  void maybeReRemember(uintptr_t ContainerBits, unsigned ContainerGen,
                       uintptr_t FieldBits);

  //===--- Phases ---------------------------------------------------------===//

  void detachFromSpace(unsigned G);
  void forwardRoots();
  void processRememberedSets(unsigned G);
  void forwardRememberedObject(Value Container);
  bool pointsBelowGeneration(Value Container, unsigned Generation) const;
  void processGuardians(unsigned G);
  void appendToTconc(Value Tconc, Value Obj);
  void processFinalizeLists(unsigned G, std::vector<uint32_t> &RunQueue);
  void weakPairPass(unsigned G);
  void fixWeakCar(Value WeakPair);
  void updateSymbolTable();
  void freeFromSpace();

  /// Protected-list index for an entry with the given (already
  /// forwarded) participants: the youngest generation among them, so
  /// the entry is revisited whenever any participant may move or die.
  /// With TenureCopies == 1 this is always the target generation,
  /// matching the paper.
  unsigned entryListIndex(Value Obj, Value Tconc, Value Agent) const;

  /// Re-parks a surviving (already forwarded) guardian entry: on the
  /// protected list of the deepest open scope any participant lives in,
  /// else on Protected[entryListIndex(...)].
  void parkProtectedEntry(Value Obj, Value Tconc, Value Agent);

  //===--- Request scopes (gc/ScopedGeneration.cpp) ----------------------===//

  /// Ordinary collections with scopes open treat every scope object as
  /// an uncollected root container: one full scan of each open scope's
  /// contexts, forwarding strong fields (weak cars are left for
  /// scopeWeakContextPass). Runs in the Roots phase.
  void scanOpenScopes();
  /// Weak-car pass over every open scope's weak-pair context (their cars
  /// may point into the collected generations).
  void scopeWeakContextPass();
  /// Rebuilds every open scope's escape sets after the copy: from-space
  /// containers that were forwarded are re-inserted under their new
  /// bits, dead ones are dropped. Must run before freeFromSpace (it
  /// reads forwarding markers).
  void fixupScopeEscapes();

  /// Scope-close helpers (defined in gc/ScopedGeneration.cpp).
  SpaceContext &scopeTargetContext(unsigned Sp);
  /// Arena the scope-close target contexts allocate from: the enclosing
  /// scope's arena (the exchange arena when closing into a donation
  /// scope), or the heap's private arena when survivors graduate to the
  /// ordinary generation 0.
  Arena &scopeTargetArena();
  uintptr_t *scopeAllocate(SpaceKind Space, size_t Words);
  void scopeDetachFromSpace(ScopedGeneration &Scope);
  void scopeForwardEscapeRoots(ScopedGeneration &Scope);
  void scopeWeakPairPass(ScopedGeneration &Scope);
  void propagateScopeEscapes(ScopedGeneration &Scope);

  Heap &H;
  GcStats S;
  unsigned T = 0; ///< Target generation (the paper's min(g+1, n)).
  /// Non-null only during runScopeClose: the scope being closed. The
  /// shared machinery (forward, kleeneSweep, appendToTconc,
  /// processGuardians) branches on it to target the enclosing extent
  /// instead of the generation ladder.
  ScopedGeneration *ClosingScope = nullptr;
  /// Enclosing scope survivors graduate into; null when the closing
  /// scope is outermost (survivors go to the ordinary generation 0).
  ScopedGeneration *TargetScope = nullptr;

  std::vector<SegmentRun> FromRuns[NumSpaces];
  /// From-space runs that live in the exchange arena rather than the
  /// heap's private arena: adopted donation runs taken from
  /// Heap::AdoptedRuns by every collection, and the segments of a
  /// closing donation scope that failed the wholesale-transfer check.
  /// Freed through the exchange arena in freeFromSpace.
  std::vector<SegmentRun> FromExchangeRuns[NumSpaces];
  SweepCursor Cursors[NumSpaces][MaxGenerations][MaxTenureCopies];
  /// Start positions of the weak-pair regions copied during this
  /// collection, for the second (weak) pass.
  SweepCursor WeakScanStarts[MaxGenerations][MaxTenureCopies];
  /// Scope-close sweep cursors over the four target contexts, and the
  /// weak-pair target's scan start for the scope weak pass.
  SweepCursor ScopeCursors[NumSpaces];
  SweepCursor ScopeWeakScanStart;
};

} // namespace gengc

#endif // GENGC_GC_COLLECTOR_H
