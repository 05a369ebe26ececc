//===- gc/Collector.cpp - Stop-and-copy generational collector -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"

#include <cstring>

#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "gc/Tconc.h"
#include "gc/telemetry/Telemetry.h"
#include "heap/SharedImmutableSpace.h"

using namespace gengc;

void Collector::run(unsigned G) {
  GcTelemetry &Tel = H.Telemetry;
  const uint64_t StartNanos = Tel.now();
  // Phase timers chain through this cursor so the phase spans tile the
  // pause exactly (see PhaseTimer).
  uint64_t PhaseCursor = StartNanos;
  H.InGc = true;

  const unsigned Oldest = H.oldestGeneration();
  GENGC_ASSERT(G <= Oldest, "collected generation out of range");
  T = std::min(G + 1, Oldest);
  // Totals.Collections is bumped by accumulate() at the end, so the
  // in-flight collection — which events recorded mid-pause must name —
  // is one past it.
  S.CollectionIndex = H.Totals.Collections + 1;
  S.CollectedGeneration = G;
  S.TargetGeneration = T;

  if (Tel.TraceEnabled) {
    GcEvent E;
    E.Type = GcEventType::CollectionBegin;
    E.TimeNanos = StartNanos;
    E.A = S.CollectionIndex;
    E.Collection = static_cast<uint32_t>(S.CollectionIndex);
    E.Generation = static_cast<uint8_t>(G);
    Tel.emit(E);
  }

  {
    PhaseTimer PT(Tel, S, GcPhase::Setup, PhaseCursor);
    detachFromSpace(G);

    // Record the sweep start of every context copies can land in:
    // generations 0..T at every tenure age. Contexts of the collected
    // generations were just detached (empty, cursor {0,0}); anything
    // already in generation T (when T > G) is an older object covered by
    // the remembered sets, so its sweep starts at the current frontier.
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
      for (unsigned Gen = 0; Gen <= T; ++Gen)
        for (unsigned Age = 0; Age != H.Cfg.TenureCopies; ++Age) {
          SpaceContext &Ctx = H.Contexts[Sp][Gen][Age];
          if (Ctx.runs().empty()) {
            Cursors[Sp][Gen][Age] = SweepCursor{0, 0};
          } else {
            size_t Last = Ctx.runs().size() - 1;
            Cursors[Sp][Gen][Age] =
                SweepCursor{Last, Ctx.usedWordsOf(H.Segments, Last)};
          }
          if (Sp == static_cast<unsigned>(SpaceKind::WeakPair))
            WeakScanStarts[Gen][Age] = Cursors[Sp][Gen][Age];
        }

    // Stale remembered entries of collected generations refer to
    // from-space containers; their survivors are rescanned by the sweep.
    for (unsigned I = 0; I <= G; ++I) {
      H.Remembered[I].clear();
      H.WeakRemembered[I].clear();
    }
  }

  S.GcWorkersUsed = 1;
  {
    PhaseTimer PT(Tel, S, GcPhase::Roots, PhaseCursor);
    forwardRoots();
    if (!H.ScopeStack.empty())
      scanOpenScopes();
  }
  {
    PhaseTimer PT(Tel, S, GcPhase::RememberedSets, PhaseCursor);
    processRememberedSets(G);
  }
  {
    PhaseTimer PT(Tel, S, GcPhase::Copy, PhaseCursor);
    kleeneSweep();
  }
  {
    PhaseTimer PT(Tel, S, GcPhase::Guardians, PhaseCursor);
    processGuardians(G);
  }

  std::vector<uint32_t> ThunkQueue;
  {
    PhaseTimer PT(Tel, S, GcPhase::Finalizers, PhaseCursor);
    processFinalizeLists(G, ThunkQueue);
  }
  {
    PhaseTimer PT(Tel, S, GcPhase::WeakPairs, PhaseCursor);
    weakPairPass(G);
  }
  {
    PhaseTimer PT(Tel, S, GcPhase::SymbolTable, PhaseCursor);
    updateSymbolTable();
  }
  {
    PhaseTimer PT(Tel, S, GcPhase::Reclaim, PhaseCursor);
    // The profiler sweep and the escape-set fixup must read forwarding
    // markers, so they run while from-space is still intact.
    if (H.Profiler.enabled())
      sweepAllocProfiler();
    if (!H.ScopeStack.empty())
      fixupScopeEscapes();
    freeFromSpace();
  }

  H.BytesSinceGc = 0;
  H.GcPending = false;
  H.InGc = false;

  // The thunks are queued and counted now (so the totals see them) but
  // run after the statistics are published.
  S.FinalizerThunksRun = ThunkQueue.size();
  S.DurationNanos = Tel.now() - StartNanos;
  Tel.recordPause({StartNanos, S.DurationNanos});

  // Mutator barrier traffic in the window since the previous
  // collection: deltas of the heap's monotonic counters.
  S.BarriersExecuted = H.BarriersExecutedTotal - H.BarriersExecutedAtGc;
  S.BarriersElided = H.BarriersElidedTotal - H.BarriersElidedAtGc;
  H.BarriersExecutedAtGc = H.BarriersExecutedTotal;
  H.BarriersElidedAtGc = H.BarriersElidedTotal;

  if (Tel.TraceEnabled) {
    if (S.ObjectsPromoted != 0) {
      GcEvent E;
      E.Type = GcEventType::TenurePromotion;
      E.TimeNanos = StartNanos + S.DurationNanos;
      E.A = S.ObjectsPromoted;
      E.B = S.BytesCopied;
      E.Collection = static_cast<uint32_t>(S.CollectionIndex);
      E.Generation = static_cast<uint8_t>(G);
      Tel.emit(E);
    }
    GcEvent E;
    E.Type = GcEventType::CollectionEnd;
    E.TimeNanos = StartNanos + S.DurationNanos;
    E.DurNanos = S.DurationNanos;
    E.A = S.BytesCopied;
    E.B = S.SegmentsFreed;
    E.Collection = static_cast<uint32_t>(S.CollectionIndex);
    E.Generation = static_cast<uint8_t>(G);
    E.Detail = static_cast<uint16_t>(T);
    Tel.emit(E);
  }

  H.Totals.accumulate(S, Oldest);
  GENGC_ASSERT(S.CollectionIndex == H.Totals.Collections,
               "collection index drifted from the totals");
  H.LastStats = S;

  // Dickey-style finalization thunks run "as part of the garbage
  // collection process and must not cause another garbage collection":
  // allocation stays disabled while they run.
  if (!ThunkQueue.empty()) {
    H.NoAllocMode = true;
    for (uint32_t Id : ThunkQueue)
      H.FinalizerThunks[Id]();
    H.NoAllocMode = false;
  }
}

//===----------------------------------------------------------------------===//
// From-space management.
//===----------------------------------------------------------------------===//

void Collector::detachFromSpace(unsigned G) {
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    for (unsigned I = 0; I <= G; ++I) {
      for (unsigned Age = 0; Age != H.Cfg.TenureCopies; ++Age) {
        std::vector<SegmentRun> Runs =
            H.Contexts[Sp][I][Age].takeRuns(H.Segments);
        for (const SegmentRun &R : Runs) {
          for (uint32_t Seg = R.FirstSegment;
               Seg != R.FirstSegment + R.SegmentCount; ++Seg)
            H.Segments.infoAt(Seg).Flags |= SegmentInfo::FlagFromSpace;
          // takeRuns sealed every run, so UsedWords is the occupied
          // extent; the sum is the denominator of this collection's
          // survival rate.
          S.BytesInFromSpace +=
              static_cast<uint64_t>(R.UsedWords) * sizeof(uintptr_t);
        }
        FromRuns[Sp].insert(FromRuns[Sp].end(), Runs.begin(), Runs.end());
      }
    }
  }

  // Adopted donation runs live in the exchange arena, tagged with
  // generation 0: every collection evacuates their survivors into the
  // private arena like any other young objects, after which the
  // exchange segments are returned to the process pool.
  Arena &EA = H.Exchange->arena();
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    for (const SegmentRun &R : H.AdoptedRuns[Sp]) {
      for (uint32_t Seg = R.FirstSegment;
           Seg != R.FirstSegment + R.SegmentCount; ++Seg)
        EA.infoAt(Seg).Flags |= SegmentInfo::FlagFromSpace;
      S.BytesInFromSpace +=
          static_cast<uint64_t>(R.UsedWords) * sizeof(uintptr_t);
    }
    FromExchangeRuns[Sp].insert(FromExchangeRuns[Sp].end(),
                                H.AdoptedRuns[Sp].begin(),
                                H.AdoptedRuns[Sp].end());
    H.AdoptedRuns[Sp].clear();
  }
}

void Collector::freeFromSpace() {
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
    for (const SegmentRun &R : FromRuns[Sp]) {
      if (H.Cfg.PoisonFromSpace) {
        // Overwrite the evacuated run so any stale pointer into it reads
        // the poison pattern (an invalid Value tag and an unmapped
        // address when dereferenced) instead of plausible dead objects.
        // rootcheck:allow(segment-base) — collector owns from-space.
        uintptr_t *Base = H.Segments.segmentBase(R.FirstSegment);
        const size_t RunWords =
            static_cast<size_t>(R.SegmentCount) * SegmentWords;
        for (size_t I = 0; I != RunWords; ++I)
          Base[I] = FromSpacePoisonPattern;
      }
      H.Segments.freeRun(R.FirstSegment, R.SegmentCount);
      S.SegmentsFreed += R.SegmentCount;
    }

  // Evacuated exchange-arena runs (adopted donations taken by
  // detachFromSpace, or a closing donation scope's segments) go back to
  // the process-wide pool; Arena::freeRun is internally locked, so this
  // is safe against other shards allocating donation segments.
  Arena &EA = H.Exchange->arena();
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
    for (const SegmentRun &R : FromExchangeRuns[Sp]) {
      if (H.Cfg.PoisonFromSpace) {
        // rootcheck:allow(segment-base) — collector owns from-space.
        uintptr_t *Base = EA.segmentBase(R.FirstSegment);
        const size_t RunWords =
            static_cast<size_t>(R.SegmentCount) * SegmentWords;
        for (size_t I = 0; I != RunWords; ++I)
          Base[I] = FromSpacePoisonPattern;
      }
      EA.freeRun(R.FirstSegment, R.SegmentCount);
      S.SegmentsFreed += R.SegmentCount;
    }
}

//===----------------------------------------------------------------------===//
// Copying.
//===----------------------------------------------------------------------===//

void Collector::targetFor(unsigned Gen, unsigned Age, unsigned &NewGen,
                          unsigned &NewAge) const {
  const unsigned NextAge = Age + 1;
  if (NextAge >= H.Cfg.TenureCopies) {
    // Aged out: promoted into the collection's target generation,
    // "objects in generations less than or equal to g that survive a
    // collection of generation g are placed in generation g+1" (capped
    // at the oldest generation). With TenureCopies == 1 every survivor
    // takes this branch, reproducing the paper exactly.
    NewGen = T;
    NewAge = 0;
    return;
  }
  // Not yet tenured: another round in its own generation, one age up.
  NewGen = Gen;
  NewAge = NextAge;
}

Value Collector::forward(Value V) {
  if (!V.isHeapPointer())
    return V;
  const SegmentInfo &Info = H.segInfo(V.heapAddress());
  if (!Info.isFromSpace())
    return V;

  // A scope close targets the enclosing extent, not the generation
  // ladder; graduation is not a promotion.
  unsigned NewGen = 0, NewAge = 0;
  uint64_t Promoted = 0;
  if (!ClosingScope) {
    targetFor(Info.Generation, Info.Age, NewGen, NewAge);
    Promoted = NewGen > Info.Generation ? 1 : 0;
  }

  if (V.isPair()) {
    PairCell *Cell = V.pairCell();
    if (Value::fromBits(Cell->Car).isForwardMarker())
      return Value::fromBits(Cell->Cdr);
    // Copy, preserving the pair's space (ordinary vs. weak).
    uintptr_t *NewCell =
        ClosingScope ? scopeAllocate(Info.Space, 2)
                     : H.allocateInGeneration(Info.Space, NewGen, NewAge, 2);
    NewCell[0] = Cell->Car;
    NewCell[1] = Cell->Cdr;
    Value NewV = Value::pair(reinterpret_cast<PairCell *>(NewCell));
    Cell->Car = Value::forwardMarker().bits();
    Cell->Cdr = NewV.bits();
    ++S.ObjectsCopied;
    S.BytesCopied += 2 * sizeof(uintptr_t);
    S.ObjectsPromoted += Promoted;
    if (H.ForwardWitness)
      H.ForwardWitness(H.ForwardWitnessCtx, V.bits(), NewV.bits());
    return NewV;
  }

  uintptr_t *Header = V.objectHeader();
  if (headerKind(*Header) == ObjectKind::Forward)
    return Value::fromBits(Header[1]);
  const size_t Words = objectSizeInWords(*Header);
  const size_t AllocWords = objectAllocWords(*Header);
  uintptr_t *NewObj =
      ClosingScope
          ? scopeAllocate(Info.Space, AllocWords)
          : H.allocateInGeneration(Info.Space, NewGen, NewAge, AllocWords);
  std::memcpy(NewObj, Header, Words * sizeof(uintptr_t));
  if (AllocWords > Words)
    NewObj[Words] = 0; // Deterministic padding for the verifier.
  Value NewV = Value::object(NewObj);
  Header[0] = makeHeader(ObjectKind::Forward, 0);
  Header[1] = NewV.bits();
  ++S.ObjectsCopied;
  S.BytesCopied += AllocWords * sizeof(uintptr_t);
  S.ObjectsPromoted += Promoted;
  if (H.ForwardWitness)
    H.ForwardWitness(H.ForwardWitnessCtx, V.bits(), NewV.bits());
  return NewV;
}

void Collector::sweepAllocProfiler() {
  AllocProfiler &P = H.Profiler;
  std::vector<AllocProfiler::SampledObject> &Table = P.trackedObjects();
  size_t Keep = 0;
  for (AllocProfiler::SampledObject &O : Table) {
    const Value V = Value::fromBits(O.Bits);
    const SegmentInfo &Info = H.segInfo(V.heapAddress());
    if (!Info.isFromSpace()) {
      // Lives in a generation older than those collected: untouched.
      Table[Keep++] = O;
      continue;
    }
    if (isForwarded(V)) {
      O.Bits = forwardedAddress(V).bits();
      P.creditSurvival(O);
      Table[Keep++] = O;
    } else {
      P.creditDeath(O);
    }
  }
  Table.resize(Keep);
}

bool Collector::isForwarded(Value V) const {
  if (!V.isHeapPointer())
    return true;
  const SegmentInfo &Info = H.segInfo(V.heapAddress());
  if (!Info.isFromSpace())
    return true;
  if (V.isPair())
    return Value::fromBits(V.pairCell()->Car).isForwardMarker();
  return headerKind(*V.objectHeader()) == ObjectKind::Forward;
}

Value Collector::forwardedAddress(Value V) const {
  if (!V.isHeapPointer())
    return V;
  const SegmentInfo &Info = H.segInfo(V.heapAddress());
  if (!Info.isFromSpace())
    return V;
  if (V.isPair()) {
    GENGC_ASSERT(Value::fromBits(V.pairCell()->Car).isForwardMarker(),
                 "get-fwd-addr on unforwarded pair");
    return Value::fromBits(V.pairCell()->Cdr);
  }
  GENGC_ASSERT(headerKind(*V.objectHeader()) == ObjectKind::Forward,
               "get-fwd-addr on unforwarded object");
  return Value::fromBits(V.objectHeader()[1]);
}

//===----------------------------------------------------------------------===//
// Roots and remembered sets.
//===----------------------------------------------------------------------===//

void Collector::forwardRoots() {
  for (Value *Slot : H.RootSlots) {
    forwardSlot(Slot);
    ++S.RootsScanned;
  }
  for (RootVector *Vec : H.RootVectors)
    for (Value &V : Vec->Slots) {
      forwardSlot(&V);
      ++S.RootsScanned;
    }
  // External root scanners (Heap::addExternalRootScanner) let subsystems
  // that store Values in their own structures — e.g. the shard runtime's
  // session tables — participate in every collection without registering
  // each slot individually.
  for (auto &Entry : H.ExternalRootScanners)
    Entry.second([this](Value *Slot) {
      forwardSlot(Slot);
      ++S.RootsScanned;
    });
  if (!H.Cfg.WeakSymbolTable) {
    // Strong interning: every table entry is a root.
    for (auto &Entry : H.SymbolTable) {
      Value Sym = forward(Value::fromBits(Entry.second));
      Entry.second = Sym.bits();
      ++S.RootsScanned;
    }
  }
}

void Collector::processRememberedSets(unsigned G) {
  for (unsigned I = G + 1; I < H.Cfg.Generations; ++I) {
    std::vector<uintptr_t> Snapshot = H.Remembered[I].takeSnapshot();
    H.Remembered[I].clear();
    for (uintptr_t Bits : Snapshot) {
      Value Container = Value::fromBits(Bits);
      forwardRememberedObject(Container);
      ++S.RememberedObjectsScanned;
      if (pointsBelowGeneration(Container, I))
        H.Remembered[I].insert(Bits);
    }
  }
}

void Collector::forwardRememberedObject(Value Container) {
  if (Container.isPair()) {
    PairCell *Cell = Container.pairCell();
    // A weak pair's car is weak and handled by the weak-pair pass; only
    // its cdr is a strong pointer.
    if (H.segInfo(Container.heapAddress()).Space != SpaceKind::WeakPair)
      forwardWord(&Cell->Car);
    forwardWord(&Cell->Cdr);
    return;
  }
  uintptr_t *Header = Container.objectHeader();
  const size_t Fields = objectPointerFieldCount(*Header);
  for (size_t I = 0; I != Fields; ++I)
    forwardWord(Header + 1 + I);
}

bool Collector::pointsBelowGeneration(Value Container,
                                      unsigned Generation) const {
  auto Below = [&](uintptr_t Bits) {
    Value V = Value::fromBits(Bits);
    // SharedGeneration (0xFF) never compares below: shared values need
    // no remembered entries.
    return V.isHeapPointer() &&
           H.segInfo(V.heapAddress()).Generation < Generation;
  };
  if (Container.isPair()) {
    PairCell *Cell = Container.pairCell();
    bool Weak =
        H.segInfo(Container.heapAddress()).Space == SpaceKind::WeakPair;
    return (!Weak && Below(Cell->Car)) || Below(Cell->Cdr);
  }
  uintptr_t *Header = Container.objectHeader();
  const size_t Fields = objectPointerFieldCount(*Header);
  for (size_t I = 0; I != Fields; ++I)
    if (Below(Header[1 + I]))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Sweeping.
//===----------------------------------------------------------------------===//

void Collector::kleeneSweep() {
  if (ClosingScope) {
    // Scope-close mode: the to-space is the four target contexts of the
    // enclosing extent, swept from the pre-close frontiers.
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (SpaceKind Space :
           {SpaceKind::Pair, SpaceKind::Typed, SpaceKind::WeakPair}) {
        const unsigned Sp = static_cast<unsigned>(Space);
        Progress |=
            sweepRange(scopeTargetArena(), scopeTargetContext(Sp),
                       ScopeCursors[Sp], Space, /*ContainerGen=*/0);
      }
    }
    return;
  }
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (unsigned Gen = 0; Gen <= T; ++Gen)
      for (unsigned Age = 0; Age != H.Cfg.TenureCopies; ++Age) {
        Progress |= sweepContext(SpaceKind::Pair, Gen, Age);
        Progress |= sweepContext(SpaceKind::Typed, Gen, Age);
        Progress |= sweepContext(SpaceKind::WeakPair, Gen, Age);
        // The data space is pointerless; nothing to sweep.
      }
  }
}

bool Collector::sweepContext(SpaceKind Space, unsigned Gen, unsigned Age) {
  const unsigned Sp = static_cast<unsigned>(Space);
  return sweepRange(H.Segments, H.Contexts[Sp][Gen][Age],
                    Cursors[Sp][Gen][Age], Space, Gen);
}

bool Collector::sweepRange(Arena &A, SpaceContext &Ctx, SweepCursor &Cur,
                           SpaceKind Space, unsigned ContainerGen) {
  bool Progress = false;

  while (true) {
    const std::vector<SegmentRun> &Runs = Ctx.runs();
    if (Cur.RunIndex >= Runs.size())
      break;
    const size_t Used = Ctx.usedWordsOf(A, Cur.RunIndex);
    if (Cur.OffsetWords >= Used) {
      if (Cur.RunIndex + 1 < Runs.size()) {
        ++Cur.RunIndex;
        Cur.OffsetWords = 0;
        continue;
      }
      break; // Caught up with the allocation frontier.
    }
    // rootcheck:allow(segment-base) — the Cheney sweep is the allocation
    // walk itself.
    uintptr_t *P = A.segmentBase(Runs[Cur.RunIndex].FirstSegment) +
                   Cur.OffsetWords;
    if (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair) {
      sweepPairAt(P, Space == SpaceKind::WeakPair, ContainerGen);
      Cur.OffsetWords += 2;
    } else {
      sweepTypedAt(P, ContainerGen);
      Cur.OffsetWords += objectAllocWords(*P);
    }
    Progress = true;
  }
  return Progress;
}

void Collector::maybeReRemember(uintptr_t ContainerBits,
                                unsigned ContainerGen,
                                uintptr_t FieldBits) {
  // Only tenure policies > 1 can leave a survivor in a generation older
  // than something it points to; the paper's simple strategy never
  // does, so the check is skipped entirely then.
  if (ContainerGen == 0)
    return;
  Value Field = Value::fromBits(FieldBits);
  if (!Field.isHeapPointer())
    return;
  if (H.segInfo(Field.heapAddress()).Generation < ContainerGen)
    H.Remembered[ContainerGen].insert(ContainerBits);
}

void Collector::sweepPairAt(uintptr_t *Cell, bool Weak,
                            unsigned ContainerGen) {
  // "When pairs found in the weak-pair space are traced during the
  // normal garbage collection, they are treated like normal pairs
  // except that the car field is not touched."
  if (!Weak)
    forwardWord(&Cell[0]);
  forwardWord(&Cell[1]);
  if (H.Cfg.TenureCopies > 1) {
    Value Pair = Value::pair(reinterpret_cast<PairCell *>(Cell));
    if (!Weak)
      maybeReRemember(Pair.bits(), ContainerGen, Cell[0]);
    maybeReRemember(Pair.bits(), ContainerGen, Cell[1]);
  }
}

void Collector::sweepTypedAt(uintptr_t *Header, unsigned ContainerGen) {
  GENGC_ASSERT(headerKind(*Header) != ObjectKind::Forward,
               "forwarding marker found in to-space");
  const size_t Fields = objectPointerFieldCount(*Header);
  for (size_t I = 0; I != Fields; ++I)
    forwardWord(Header + 1 + I);
  if (H.Cfg.TenureCopies > 1) {
    Value Obj = Value::object(Header);
    for (size_t I = 0; I != Fields; ++I)
      maybeReRemember(Obj.bits(), ContainerGen, Header[1 + I]);
  }
}

//===----------------------------------------------------------------------===//
// Guardians (the Section 4 algorithm).
//===----------------------------------------------------------------------===//

unsigned Collector::entryListIndex(Value Obj, Value Tconc,
                                   Value Agent) const {
  unsigned Index = H.oldestGeneration();
  // A shared participant's SharedGeneration (0xFF) loses the min against
  // the oldest real generation, which is the right list for an entry
  // that can only be reaped when everything else ages out.
  for (Value V : {Obj, Tconc, Agent})
    if (V.isHeapPointer())
      Index = std::min(Index, static_cast<unsigned>(
                                  H.segInfo(V.heapAddress()).Generation));
  return Index;
}

void Collector::processGuardians(unsigned G) {
  using Entry = Heap::ProtectedEntry;
  std::vector<Entry> PendHold, PendFinal;

  // First block: separate accessible from inaccessible registered
  // objects. forwarded?(obj) covers both "copied this cycle" and
  // "resides in an older generation". Section 5 agents are retained for
  // the lifetime of the registration, so every visited entry's agent is
  // forwarded here (for plain registrations the agent IS the object and
  // this is a no-op for inaccessible ones, preserving the Section 4
  // algorithm: forward() only marks it live if it was already live).
  bool ForwardedAnAgent = false;
  auto Classify = [&](const Entry &In) {
    Entry E = In;
    ++S.ProtectedEntriesVisited;
    if (isForwarded(Value::fromBits(E.ObjectBits))) {
      if (E.AgentBits != E.ObjectBits) {
        E.AgentBits = forward(Value::fromBits(E.AgentBits)).bits();
        ForwardedAnAgent = true;
      } else {
        E.AgentBits = forwardedAddress(Value::fromBits(E.ObjectBits)).bits();
      }
      PendHold.push_back(E);
    } else {
      PendFinal.push_back(E);
    }
  };
  if (ClosingScope) {
    // Scope close: only the closing scope's own registrations are in
    // play; forwarded?(obj) now means "graduated or lives outside the
    // scope", so the Section 4 blocks below run unchanged over the
    // dying extent.
    for (const Entry &E : ClosingScope->Protected)
      Classify(E);
    ClosingScope->Protected.clear();
  } else {
    for (unsigned I = 0; I <= G; ++I) {
      for (const Entry &E : H.Protected[I])
        Classify(E);
      H.Protected[I].clear();
    }
    // Entries parked on open scopes' lists: their scope participants are
    // uncollected, but a participant in a collected generation can still
    // move or die, so they are triaged every collection too.
    for (auto &SG : H.ScopeStack) {
      for (const Entry &E : SG->Protected)
        Classify(E);
      SG->Protected.clear();
    }
  }
  if (ForwardedAnAgent)
    kleeneSweep();

  // Second block: repeatedly salvage objects whose guardian (tconc) is
  // accessible. Salvaging can make more tconcs accessible (an object may
  // point to another guardian), hence the fixpoint loop; a tconc that
  // never becomes accessible means the guardian was dropped and the
  // entry is discarded, letting its objects be reclaimed.
  bool FaultDroppedOne = false;
  while (true) {
    ++S.GuardianLoopIterations;
    std::vector<Entry> FinalList;
    size_t Keep = 0;
    for (const Entry &E : PendFinal) {
      if (isForwarded(Value::fromBits(E.TconcBits)))
        FinalList.push_back(E);
      else
        PendFinal[Keep++] = E;
    }
    PendFinal.resize(Keep);
    if (FinalList.empty())
      break;
    if (H.Telemetry.TraceEnabled && !ClosingScope) {
      GcEvent Ev;
      Ev.Type = GcEventType::GuardianResurrection;
      Ev.TimeNanos = H.Telemetry.now();
      Ev.A = FinalList.size();
      // The (generation, target) coordinate pair the census reports
      // under: resurrected entries are re-parked in protected[target].
      Ev.B = T;
      Ev.Collection = static_cast<uint32_t>(S.CollectionIndex);
      Ev.Generation = static_cast<uint8_t>(S.CollectedGeneration);
      Ev.Detail = static_cast<uint16_t>(S.GuardianLoopIterations);
      H.Telemetry.emit(Ev);
    }
    for (const Entry &E : FinalList) {
      if (H.Cfg.InjectedFault == GcFaultInjection::DropFirstResurrection &&
          !FaultDroppedOne) {
        // Injected bug: silently lose one resurrection per collection.
        // The agent is neither forwarded nor delivered, so an object the
        // paper's algorithm would save is reclaimed instead.
        FaultDroppedOne = true;
        continue;
      }
      // Deliver the agent (== the object for plain registrations,
      // saving it from destruction; a distinct Section 5 agent lets the
      // object itself be discarded).
      Value Agent = forward(Value::fromBits(E.AgentBits));
      Value Tconc = forwardedAddress(Value::fromBits(E.TconcBits));
      appendToTconc(Tconc, Agent);
      ++S.GuardianObjectsSaved;
    }
    kleeneSweep();
  }
  S.GuardianEntriesDropped += PendFinal.size();

  // Third block: entries whose object survived. If the guardian survived
  // too, the entry moves to the protected list of the youngest
  // generation among its participants (the target generation, under the
  // paper's tenure policy); otherwise the registration dies with the
  // guardian.
  for (const Entry &E : PendHold) {
    Value Tconc = Value::fromBits(E.TconcBits);
    if (isForwarded(Tconc)) {
      // The agent was already forwarded during classification.
      Value NewObj = forwardedAddress(Value::fromBits(E.ObjectBits));
      Value NewTconc = forwardedAddress(Tconc);
      Value NewAgent = Value::fromBits(E.AgentBits);
      parkProtectedEntry(NewObj, NewTconc, NewAgent);
      ++S.ProtectedEntriesKept;
    } else {
      ++S.GuardianEntriesDropped;
    }
  }
}

void Collector::parkProtectedEntry(Value Obj, Value Tconc, Value Agent) {
  // An entry with a scope participant parks on the deepest such scope's
  // list, so it is revisited no later than that scope's close; entries
  // whose participants are all ordinary heap objects use the paper's
  // youngest-generation rule.
  unsigned Deepest = 0;
  for (Value V : {Obj, Tconc, Agent})
    Deepest = std::max(Deepest, H.scopeDepthOf(V));
  if (Deepest != 0) {
    H.ScopeStack[Deepest - 1]->Protected.push_back(
        {Obj.bits(), Tconc.bits(), Agent.bits()});
    return;
  }
  unsigned Index = entryListIndex(Obj, Tconc, Agent);
  H.Protected[Index].push_back({Obj.bits(), Tconc.bits(), Agent.bits()});
}

void Collector::appendToTconc(Value Tconc, Value Obj) {
  // Figure 3, with the fresh last pair allocated directly in the target
  // generation (the enclosing extent during a scope close). The stores
  // go through the barriered setters: when the tconc lives in an older
  // generation — or a shallower scope — linking in target cells creates
  // edges that must be remembered or escape-recorded.
  uintptr_t *NewCell =
      ClosingScope ? scopeAllocate(SpaceKind::Pair, 2)
                   : H.allocateInGeneration(SpaceKind::Pair, T, /*Age=*/0, 2);
  NewCell[0] = Value::falseV().bits();
  NewCell[1] = Value::falseV().bits();
  Value NewLast = Value::pair(reinterpret_cast<PairCell *>(NewCell));
  tconcAppendWithCell(H, Tconc, Obj, NewLast);
}

//===----------------------------------------------------------------------===//
// register-for-finalization lists.
//===----------------------------------------------------------------------===//

void Collector::processFinalizeLists(unsigned G,
                                     std::vector<uint32_t> &RunQueue) {
  std::vector<Heap::FinalizeEntry> Kept;
  for (unsigned I = 0; I <= G; ++I) {
    for (const Heap::FinalizeEntry &E : H.FinalizeLists[I]) {
      Value Obj = Value::fromBits(E.ObjectBits);
      if (isForwarded(Obj))
        Kept.push_back({forwardedAddress(Obj).bits(), E.ThunkId});
      else
        RunQueue.push_back(E.ThunkId); // Object is NOT preserved.
    }
    H.FinalizeLists[I].clear();
  }
  for (const Heap::FinalizeEntry &E : Kept) {
    Value Obj = Value::fromBits(E.ObjectBits);
    // Clamp SharedGeneration (0xFF): an entry whose object was frozen
    // into the shared space parks on the oldest list, like a non-heap
    // one.
    unsigned Index =
        Obj.isHeapPointer()
            ? std::min(static_cast<unsigned>(
                           H.segInfo(Obj.heapAddress()).Generation),
                       H.oldestGeneration())
            : H.oldestGeneration();
    H.FinalizeLists[Index].push_back(E);
  }
}

//===----------------------------------------------------------------------===//
// Weak pairs.
//===----------------------------------------------------------------------===//

void Collector::weakPairPass(unsigned G) {
  // (a) Weak pairs copied during this collection, in every to-space
  // context.
  const unsigned Sp = static_cast<unsigned>(SpaceKind::WeakPair);
  for (unsigned Gen = 0; Gen <= T; ++Gen) {
    for (unsigned Age = 0; Age != H.Cfg.TenureCopies; ++Age) {
      SpaceContext &Ctx = H.Contexts[Sp][Gen][Age];
      SweepCursor Cur = WeakScanStarts[Gen][Age];
      while (true) {
        const std::vector<SegmentRun> &Runs = Ctx.runs();
        if (Cur.RunIndex >= Runs.size())
          break;
        const size_t Used = Ctx.usedWordsOf(H.Segments, Cur.RunIndex);
        if (Cur.OffsetWords >= Used) {
          if (Cur.RunIndex + 1 < Runs.size()) {
            ++Cur.RunIndex;
            Cur.OffsetWords = 0;
            continue;
          }
          break;
        }
        // rootcheck:allow(segment-base) — weak pass replays the sweep walk.
        uintptr_t *Cell =
            H.Segments.segmentBase(Runs[Cur.RunIndex].FirstSegment) +
            Cur.OffsetWords;
        fixWeakCar(Value::pair(reinterpret_cast<PairCell *>(Cell)));
        Cur.OffsetWords += 2;
      }
    }
  }

  // (b) Older weak pairs whose car was mutated to point at a younger
  // generation. Only these can reference the from-space, so the pass
  // stays proportional to the collected work.
  for (unsigned I = G + 1; I < H.Cfg.Generations; ++I) {
    std::vector<uintptr_t> Snapshot = H.WeakRemembered[I].takeSnapshot();
    H.WeakRemembered[I].clear();
    for (uintptr_t Bits : Snapshot) {
      Value P = Value::fromBits(Bits);
      fixWeakCar(P);
      Value Car = pairCar(P);
      if (Car.isHeapPointer() &&
          H.segInfo(Car.heapAddress()).Generation < I)
        H.WeakRemembered[I].insert(Bits);
    }
  }

  // (c) Weak pairs living in open request scopes: the scopes are not
  // collected, but their cars may point into the collected generations.
  if (!H.ScopeStack.empty())
    scopeWeakContextPass();
}

void Collector::scopeWeakContextPass() {
  const unsigned Sp = static_cast<unsigned>(SpaceKind::WeakPair);
  for (auto &SG : H.ScopeStack) {
    Arena &A = *SG->ScopeArena;
    SpaceContext &Ctx = SG->Contexts[Sp];
    Ctx.sealCurrentRun(A);
    const std::vector<SegmentRun> &Runs = Ctx.runs();
    for (size_t R = 0; R != Runs.size(); ++R) {
      // rootcheck:allow(segment-base) — replays the scope's bump walk.
      uintptr_t *Base = A.segmentBase(Runs[R].FirstSegment);
      const size_t Used = Ctx.usedWordsOf(A, R);
      for (size_t Off = 0; Off != Used; Off += 2)
        fixWeakCar(Value::pair(reinterpret_cast<PairCell *>(Base + Off)));
    }
  }
}

void Collector::scanOpenScopes() {
  // Every object in every open scope is an uncollected container whose
  // strong fields may point into the collected generations: one full
  // scan forwards them. Nothing is allocated into scope contexts during
  // a collection (guardian tconc cells go to the target generation), and
  // collector-side stores only write already-forwarded values, so a
  // single pass per scope suffices — no fixpoint.
  for (auto &SG : H.ScopeStack) {
    for (SpaceKind Space :
         {SpaceKind::Pair, SpaceKind::Typed, SpaceKind::WeakPair}) {
      const unsigned Sp = static_cast<unsigned>(Space);
      SweepCursor Cur{0, 0};
      sweepRange(*SG->ScopeArena, SG->Contexts[Sp], Cur, Space,
                 /*ContainerGen=*/0);
    }
  }
}

void Collector::fixupScopeEscapes() {
  for (auto &SG : H.ScopeStack) {
    for (PtrHashSet *Set : {&SG->Escapes, &SG->WeakEscapes}) {
      std::vector<uintptr_t> Snapshot = Set->takeSnapshot();
      Set->clear();
      for (uintptr_t Bits : Snapshot) {
        Value C = Value::fromBits(Bits);
        const SegmentInfo &Info = H.segInfo(C.heapAddress());
        if (!Info.isFromSpace()) {
          Set->insert(Bits);
        } else if (isForwarded(C)) {
          Set->insert(forwardedAddress(C).bits());
        }
        // Dead containers drop out: whatever escape they recorded died
        // with them.
      }
    }
  }
}

void Collector::fixWeakCar(Value WeakPair) {
  ++S.WeakPairsExamined;
  PairCell *Cell = WeakPair.pairCell();
  Value Car = Value::fromBits(Cell->Car);
  if (!Car.isHeapPointer())
    return;
  const SegmentInfo &Info = H.segInfo(Car.heapAddress());
  if (!Info.isFromSpace())
    return;
  // "If the object pointed to by the car field has been forwarded, the
  // new address is placed in the car field. Otherwise, #f is placed in
  // the car field." Guardian-salvaged objects were forwarded before this
  // pass runs, so they are updated, not broken.
  if (isForwarded(Car) &&
      H.Cfg.InjectedFault != GcFaultInjection::BreakLiveWeakCar) {
    Cell->Car = forwardedAddress(Car).bits();
    Value NewCar = Value::fromBits(Cell->Car);
    // Track a young car (possible under tenure policies, or after this
    // pair was copied while its car stayed behind) so later collections
    // can find it.
    unsigned PairGen = H.segInfo(WeakPair.heapAddress()).Generation;
    if (NewCar.isHeapPointer() &&
        H.segInfo(NewCar.heapAddress()).Generation < PairGen)
      H.WeakRemembered[PairGen].insert(WeakPair.bits());
  } else {
    Cell->Car = Value::falseV().bits();
    ++S.WeakPointersBroken;
  }
}

//===----------------------------------------------------------------------===//
// Symbol table.
//===----------------------------------------------------------------------===//

void Collector::updateSymbolTable() {
  if (!H.Cfg.WeakSymbolTable)
    return; // Handled as strong roots in forwardRoots().
  // Friedman-Wise scatter-table collection: drop entries whose symbol
  // died; update entries whose symbol moved.
  for (auto It = H.SymbolTable.begin(); It != H.SymbolTable.end();) {
    Value Sym = Value::fromBits(It->second);
    const SegmentInfo &Info = H.segInfo(Sym.heapAddress());
    if (!Info.isFromSpace()) {
      ++It;
      continue;
    }
    if (isForwarded(Sym)) {
      It->second = forwardedAddress(Sym).bits();
      ++It;
    } else {
      It = H.SymbolTable.erase(It);
      ++S.SymbolsDropped;
    }
  }
}
