//===- gc/Donation.cpp - Zero-copy segment donation -----------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap-level primitives of zero-copy inter-shard transfer
/// (DESIGN.md §14): copy-out donation (Heap::donateGraph), adoption
/// (Heap::adoptDonatedGraph), wholesale donation-scope transfer
/// (Heap::openDonationScope / Heap::tryCloseScopeDonating), and the
/// freeze half of the shared immutable space's freeze-and-publish
/// protocol. All of it builds on the segment information table: a
/// donated segment changes owner by changing its tags, never by moving
/// its bytes.
///
/// SharedImmutableSpace::freeze is defined here rather than in
/// heap/SharedImmutableSpace.cpp because classifying the source values
/// (weak pair? symbol name?) needs the Heap, which the heap/ layer
/// cannot see.
///
//===----------------------------------------------------------------------===//

#include <unordered_map>
#include <vector>

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "heap/ObjectWalk.h"
#include "heap/SharedImmutableSpace.h"
#include "object/Layout.h"

using namespace gengc;

//===----------------------------------------------------------------------===//
// Freeze-and-publish (the shared immutable half of the exchange domain).
//===----------------------------------------------------------------------===//

Value SharedImmutableSpace::freeze(Heap &H, Value V) {
  std::lock_guard<std::mutex> Guard(Mu);
  std::unordered_map<uintptr_t, uintptr_t> Memo;
  return freezeRec(H, V, Memo);
}

Value SharedImmutableSpace::freezeRec(
    Heap &H, Value V, std::unordered_map<uintptr_t, uintptr_t> &Memo) {
  if (!V.isHeapPointer())
    return V;
  if (holds(V)) {
    GENGC_ASSERT(Exchange.infoFor(V.heapAddress()).isShared(),
                 "freeze of an in-flight donated value");
    return V; // Already shared: freezing is idempotent.
  }
  auto It = Memo.find(V.bits());
  if (It != Memo.end())
    return Value::fromBits(It->second);

  SpaceKind Space = SpaceKind::Pair;
  if (V.isPair()) {
    if (H.isWeakPair(V))
      fatalError(__FILE__, __LINE__,
                 "cannot freeze a weak pair into the shared immutable "
                 "space (weakness is mutation by the collector)");
  } else {
    switch (objectKind(V)) {
    case ObjectKind::String: {
      Value S = sharedStringLocked(
          std::string_view(stringData(V), objectLength(V)));
      Memo.emplace(V.bits(), S.bits());
      return S;
    }
    case ObjectKind::Symbol: {
      Value S = internSharedLocked(H.symbolName(V));
      Memo.emplace(V.bits(), S.bits());
      return S;
    }
    case ObjectKind::Bytevector:
    case ObjectKind::Flonum:
      Space = SpaceKind::Data;
      break;
    case ObjectKind::Vector:
      Space = SpaceKind::Typed;
      break;
    default:
      fatalError(__FILE__, __LINE__,
                 "cannot freeze a mutable object kind into the shared "
                 "immutable space");
    }
  }

  // Copy and memoize first, then freeze the copy's slots in place: cycles
  // and sharing within the frozen graph are preserved.
  uintptr_t *Copy = copyObject(objectStart(V), Space, [&](size_t Words) {
    return allocateShared(Space, Words);
  });
  Value NewV = objectValueAt(Copy, Space);
  Memo.emplace(V.bits(), NewV.bits());
  forEachSlot(Copy, Space, [&](uintptr_t *Slot, bool) {
    *Slot = freezeRec(H, Value::fromBits(*Slot), Memo).bits();
  });
  return NewV;
}

//===----------------------------------------------------------------------===//
// Copy-out donation.
//===----------------------------------------------------------------------===//

namespace {

/// Kinds that are meaningless outside their shard and so never cross.
bool crossesShards(Value V) {
  if (V.isPair())
    return true;
  switch (headerKind(*V.objectHeader())) {
  case ObjectKind::Closure:
  case ObjectKind::Primitive:
  case ObjectKind::PortHandle:
  case ObjectKind::Guardian:
    return false;
  default:
    return true;
  }
}

} // namespace

DonatedGraph Heap::donateGraph(Value Root, TransferPolicy Policy) {
  checkOwner("donateGraph");
  GENGC_ASSERT(!InGc, "donateGraph during a collection");
  GENGC_ASSERT(!NoAllocMode, "donateGraph inside a finalizer thunk");

  DonatedGraph G;
  G.Domain = Exchange;
  if (Cfg.InjectedFault == GcFaultInjection::LeakDonatedSegment)
    G.LeakOnDrop = true;

  // A symbol root transfers by name and needs no segments. Any other
  // root is treated like a slot: immediates and shared values pass as-is
  // (no segments either), and kinds that cannot cross are severed or
  // rejected.
  if (Root.isObject() && objectKind(Root) == ObjectKind::Symbol) {
    G.RootIsSymbol = true;
    G.RootSymbolName = symbolName(Root);
    ++GraphsDonatedTotal;
    return G;
  }

  Arena &EA = Exchange->arena();
  // Copy-out lanes: in-flight donation segments carry InFlightGeneration
  // and FlagDonated; one run lock acquisition per run, never per object.
  SpaceContext Lanes[NumSpaces];
  // Side copy map (old bits -> new bits). The sender's graph is left
  // untouched — no forwarding markers — so a send is non-destructive
  // and needs no sender-side cleanup pass afterwards.
  std::unordered_map<uintptr_t, uintptr_t> Map;

  // Rewrites one slot of a donated copy in place. False iff the slot
  // reaches a kind that cannot cross shards under Reject.
  auto fixSlot = [&](uintptr_t *Slot, bool WeakCar,
                     uintptr_t ContainerBits) {
    Value V = Value::fromBits(*Slot);
    if (!V.isHeapPointer())
      return true;
    const SegmentInfo &Info = segInfo(V.heapAddress());
    if (Info.isShared())
      return true; // Shared immutables are valid on every shard as-is.
    GENGC_ASSERT(!(Info.isDonated() &&
                   Info.Generation == InFlightGeneration),
                 "donateGraph reached another in-flight donation");
    if (V.isObject() && objectKind(V) == ObjectKind::Symbol) {
      // Symbols keep per-heap eq? identity: transfer by name.
      G.Fixups.push_back({Slot, ContainerBits, WeakCar, symbolName(V)});
      *Slot = Value::falseV().bits();
      return true;
    }
    if (!crossesShards(V)) {
      if (Policy == TransferPolicy::Reject)
        return false;
      *Slot = Value::falseV().bits();
      ++G.SeveredEdges;
      return true;
    }
    // Copied once, into its space's lane; the lane's sweep fixes the
    // copy's slots later.
    auto [It, Fresh] = Map.try_emplace(V.bits(), 0);
    if (Fresh) {
      const SpaceKind Space = Info.Space;
      uintptr_t *Copy = copyObject(objectStart(V), Space, [&](size_t Words) {
        return Lanes[static_cast<unsigned>(Space)].allocate(
            EA, Space, InFlightGeneration, Words, /*Age=*/0,
            /*ScopeDepth=*/0, SegmentInfo::FlagDonated);
      });
      It->second = objectValueAt(Copy, Space).bits();
    }
    *Slot = It->second;
    return true;
  };

  // The Cheney scan of the lanes: each copy's slots still hold sender
  // addresses until its lane's sweep fixes them, and fixing a slot may
  // copy more objects behind the cursors. Weak cars are traversed
  // strongly: a message is a value, so weakly-held structure crosses
  // too; the copies land in weak-pair-space segments, so the receiver's
  // own collections resume weak semantics after adoption. The data lane
  // is pointerless: nothing to sweep.
  G.RootBits = Root.bits();
  bool Rejected = !fixSlot(&G.RootBits, /*WeakCar=*/false, 0);
  WalkCursor Cursors[NumSpaces];
  for (bool Progress = true; Progress && !Rejected;) {
    Progress = false;
    for (SpaceKind Space :
         {SpaceKind::Pair, SpaceKind::WeakPair, SpaceKind::Typed}) {
      auto FixCopy = [&](uintptr_t *P) {
        const uintptr_t CB = objectValueAt(P, Space).bits();
        Rejected = !forEachSlot(P, Space, [&](uintptr_t *Slot, bool WeakCar) {
          return fixSlot(Slot, WeakCar, CB);
        });
        return !Rejected;
      };
      const unsigned Sp = static_cast<unsigned>(Space);
      Progress |= walkObjects(EA, Lanes[Sp], Space, Cursors[Sp], FixCopy) != 0;
      if (Rejected)
        break;
    }
  }
  if (Rejected) {
    // Nothing is sent: the runs copied so far go back to the exchange
    // arena, and the sender's graph was never touched.
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
      for (const SegmentRun &R : Lanes[Sp].takeRuns(EA))
        EA.freeRun(R.FirstSegment, R.SegmentCount);
    return DonatedGraph();
  }

  // Seal and detach: the handle owns the runs outright from here.
  uint64_t Bytes = 0;
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    G.Runs[Sp] = Lanes[Sp].takeRuns(EA);
    for (const SegmentRun &R : G.Runs[Sp])
      Bytes += static_cast<uint64_t>(R.UsedWords) * sizeof(uintptr_t);
  }
  G.Bytes = Bytes;

  ++GraphsDonatedTotal;
  SegmentsDonatedTotal += G.segmentCount();
  BytesDonatedTotal += Bytes;
  return G;
}

//===----------------------------------------------------------------------===//
// Adoption.
//===----------------------------------------------------------------------===//

Value Heap::adoptDonatedGraph(DonatedGraph &Graph) {
  checkOwner("adoptDonatedGraph");
  GENGC_ASSERT(!InGc, "adoptDonatedGraph during a collection");
  GENGC_ASSERT(!NoAllocMode, "adoptDonatedGraph inside a finalizer thunk");
  GENGC_ASSERT(Graph.Domain == nullptr || Graph.Domain == Exchange,
               "adopting a graph from a foreign exchange domain");

  ++GraphsAdoptedTotal;

  // Degenerate graphs: nothing was donated.
  if (Graph.RootIsSymbol) {
    GENGC_ASSERT(Graph.empty(), "symbol-rooted graph carries segments");
    Graph.Domain = nullptr;
    return intern(Graph.RootSymbolName);
  }
  if (Graph.empty()) {
    Value Root = Value::fromBits(Graph.RootBits);
    Graph.Domain = nullptr;
    return Root;
  }

  // Phase 1 — safepoints allowed: intern every fixup symbol while the
  // donated segments are still private to the handle. Nothing in this
  // heap references them yet (the fixup slots hold #f), so a collection
  // triggered by interning cannot observe half-adopted memory.
  RootVector Syms(*this);
  for (const DonatedSymbolFixup &F : Graph.Fixups)
    Syms.push_back(intern(F.Name));

  // Phase 2 — no safepoints from here on: retag the segments to this
  // heap's generation 0 and append the runs to the adopted space.
  // Addresses do not change; ownership does. The footprint, not the
  // payload bytes, is charged against the generation-0 budget: each
  // small message holds whole segments until a collection returns them.
  BytesSinceGc += Graph.segmentCount() * SegmentBytes;
  if (BytesSinceGc >= Cfg.Gen0CollectBytes)
    GcPending = true;
  Arena &EA = Exchange->arena();
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    for (const SegmentRun &R : Graph.Runs[Sp]) {
      for (uint32_t Seg = R.FirstSegment;
           Seg != R.FirstSegment + R.SegmentCount; ++Seg) {
        SegmentInfo &Info = EA.infoAt(Seg);
        GENGC_ASSERT(Info.isDonated() && !Info.isShared() &&
                         Info.Generation == InFlightGeneration,
                     "adopting a segment that is not an in-flight donation");
        Info.Generation = 0;
        Info.Age = 0;
        Info.ScopeDepth = 0;
      }
      AdoptedRuns[Sp].appendSealedRun(EA, R);
    }
    Graph.Runs[Sp].clear();
  }

  // Phase 3: patch the symbol placeholders raw. The containers are in
  // generation 0, so no symbol is younger than its container; only a
  // symbol interned into an open scope of this heap needs recording,
  // as an escape root of that scope.
  for (size_t I = 0; I != Graph.Fixups.size(); ++I) {
    const DonatedSymbolFixup &F = Graph.Fixups[I];
    Value Sym = Syms[I];
    *F.Slot = Sym.bits();
    if (const unsigned SymDepth = scopeDepthOf(Sym)) {
      ScopedGeneration &SG = *ScopeStack[SymDepth - 1];
      (F.WeakCar ? SG.WeakEscapes : SG.Escapes).insert(F.ContainerBits);
    }
  }
  Graph.Fixups.clear();

  Value Root = Value::fromBits(Graph.RootBits);
  Graph.Domain = nullptr;
  Graph.Bytes = 0;
  return Root;
}

//===----------------------------------------------------------------------===//
// Donation scopes: wholesale transfer without even the one copy.
//===----------------------------------------------------------------------===//

void Heap::openDonationScope() {
  checkOwner("openDonationScope");
  GENGC_ASSERT(!InGc, "openDonationScope during a collection");
  GENGC_ASSERT(!NoAllocMode, "openDonationScope inside a finalizer thunk");
  GENGC_ASSERT(NoGcScopeDepth == 0, "openDonationScope inside a NoGcScope");
  GENGC_ASSERT(ScopeStack.size() < Cfg.MaxScopeDepth,
               "scope nesting deeper than HeapConfig::MaxScopeDepth");
  ScopeStack.push_back(std::make_unique<ScopedGeneration>(
      static_cast<unsigned>(ScopeStack.size()) + 1, &Exchange->arena(),
      /*Donation=*/true));
  ++ScopeTotalsRec.ScopesOpened;
  if (ScopeStack.size() > ScopeTotalsRec.MaxDepth)
    ScopeTotalsRec.MaxDepth = ScopeStack.size();
}

DonatedGraph Heap::tryCloseScopeDonating(Value Root) {
  checkOwner("tryCloseScopeDonating");
  GENGC_ASSERT(!InGc, "tryCloseScopeDonating during a collection");
  GENGC_ASSERT(!NoAllocMode, "tryCloseScopeDonating inside a finalizer");
  GENGC_ASSERT(NoGcScopeDepth == 0, "tryCloseScopeDonating in NoGcScope");
  GENGC_ASSERT(!ScopeStack.empty(), "tryCloseScopeDonating with no scope");
  ScopedGeneration &Scope = *ScopeStack.back();
  GENGC_ASSERT(Scope.Donation,
               "tryCloseScopeDonating on a non-donation scope");

  // An empty handle (Domain == nullptr) means "checks failed, scope
  // still open" — the caller falls back to closeScope() + donateGraph.
  DonatedGraph G;

  // Cheap vetoes first: anything that escaped, and any guardian
  // registration with a scope participant, pins the scope to the
  // ordinary evacuating close.
  if (!Scope.Escapes.empty() || !Scope.WeakEscapes.empty() ||
      !Scope.Protected.empty())
    return G;

  // No root may reach into the scope.
  const unsigned Depth = Scope.Depth;
  auto InScope = [&](Value V) {
    return V.isHeapPointer() && !Segments.containsAddress(V.heapAddress()) &&
           segInfo(V.heapAddress()).ScopeDepth == Depth;
  };
  for (Value *Slot : RootSlots)
    if (scopeDepthOf(*Slot) == Depth)
      return G;
  for (RootVector *Vec : RootVectors)
    for (Value &V : Vec->slots())
      if (scopeDepthOf(V) == Depth)
        return G;
  bool ExternalReaches = false;
  for (auto &Entry : ExternalRootScanners)
    Entry.second([&](Value *Slot) {
      if (scopeDepthOf(*Slot) == Depth)
        ExternalReaches = true;
    });
  if (ExternalReaches)
    return G;
  // register-for-finalization entries referencing scope objects would
  // need their death observed by the close; wholesale transfer cannot.
  for (unsigned I = 0; I != Cfg.Generations; ++I)
    for (const FinalizeEntry &E : FinalizeLists[I])
      if (scopeDepthOf(Value::fromBits(E.ObjectBits)) == Depth)
        return G;

  // The root itself must be donatable: in-scope, shared, a symbol, or
  // an immediate.
  Arena &EA = Exchange->arena();
  const bool RootSymbol =
      Root.isObject() && objectKind(Root) == ObjectKind::Symbol;
  if (Root.isHeapPointer() && !RootSymbol && !isShared(Root) &&
      !InScope(Root))
    return G; // Root outside the scope: nothing to hand over.

  // Read-only self-containment scan of the scope's pointer-bearing
  // spaces, O(scope bytes). Every outbound edge must be an immediate, a
  // shared value, or a symbol (collected as a fixup and blanked only
  // after all checks pass). Internal edges stay as-is — that is the
  // zero-copy part. Data space is pointerless: nothing to scan.
  auto Classify = [&](uintptr_t *Slot, bool WeakCar,
                      uintptr_t ContainerBits) -> bool {
    Value V = Value::fromBits(*Slot);
    if (!V.isHeapPointer() || isShared(V))
      return true;
    if (V.isObject() && objectKind(V) == ObjectKind::Symbol) {
      // In-scope or not, symbols transfer by name; an in-scope symbol's
      // storage rides along as unreferenced words and is reclaimed by
      // the receiver's next collection.
      G.Fixups.push_back({Slot, ContainerBits, WeakCar, symbolName(V)});
      return true;
    }
    // Internal edges point at this scope's own exchange-arena segments.
    return InScope(V);
  };
  auto ScanSpace = [&](SpaceKind Space) -> bool {
    bool Contained = true;
    auto ScanObject = [&](uintptr_t *P) {
      const uintptr_t CB = objectValueAt(P, Space).bits();
      Contained = forEachSlot(P, Space, [&](uintptr_t *Slot, bool WeakCar) {
        return Classify(Slot, WeakCar, CB);
      });
      return Contained;
    };
    WalkCursor Cur;
    walkObjects(EA, Scope.Contexts[static_cast<unsigned>(Space)], Space, Cur,
                ScanObject);
    return Contained;
  };
  if (!ScanSpace(SpaceKind::Pair) || !ScanSpace(SpaceKind::WeakPair) ||
      !ScanSpace(SpaceKind::Typed))
    return DonatedGraph();

  // All checks passed — commit. Mutation starts here and cannot fail.
  G.Domain = Exchange;
  if (Cfg.InjectedFault == GcFaultInjection::LeakDonatedSegment)
    G.LeakOnDrop = true;

  // The root's name must be captured before the intern-table erase (the
  // object itself stays readable until the handle leaves this thread).
  if (RootSymbol) {
    G.RootIsSymbol = true;
    G.RootSymbolName = symbolName(Root);
  } else {
    G.RootBits = Root.bits();
  }

  // Symbols interned while the scope was open live in its segments;
  // their storage leaves this heap with the donation, so the sender's
  // intern entries must go (semantically the symbols die here and would
  // be re-interned on demand, exactly as under a weak symbol table).
  for (auto It = SymbolTable.begin(); It != SymbolTable.end();) {
    if (InScope(Value::fromBits(It->second)))
      It = SymbolTable.erase(It);
    else
      ++It;
  }
  // Likewise the profiler's samples of scope objects: they leave this
  // heap unobserved, so they are credited as dead, as an ordinary close
  // credits the objects that do not graduate.
  if (Profiler.enabled()) {
    std::vector<AllocProfiler::SampledObject> &Table =
        Profiler.trackedObjects();
    size_t Keep = 0;
    for (const AllocProfiler::SampledObject &O : Table) {
      if (InScope(Value::fromBits(O.Bits)))
        Profiler.creditDeath(O);
      else
        Table[Keep++] = O;
    }
    Table.resize(Keep);
  }

  for (const DonatedSymbolFixup &F : G.Fixups)
    *F.Slot = Value::falseV().bits();

  // Detach the runs and drop the scope tags: in-flight donations carry
  // (Generation == InFlightGeneration, ScopeDepth 0, FlagDonated).
  uint64_t Bytes = 0;
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    G.Runs[Sp] = Scope.Contexts[Sp].takeRuns(EA);
    for (const SegmentRun &R : G.Runs[Sp]) {
      for (uint32_t Seg = R.FirstSegment;
           Seg != R.FirstSegment + R.SegmentCount; ++Seg) {
        SegmentInfo &Info = EA.infoAt(Seg);
        Info.ScopeDepth = 0;
        Info.Generation = InFlightGeneration;
      }
      Bytes += static_cast<uint64_t>(R.UsedWords) * sizeof(uintptr_t);
    }
  }
  G.Bytes = Bytes;

  // The wholesale transfer IS this scope's close: zero evacuation, zero
  // segments freed — they changed owner instead.
  ScopeStack.pop_back();
  ScopeCloseStats Out;
  Out.Depth = Depth;
  Out.BytesInScope = Bytes;
  LastScopeClose = Out;
  ScopeTotalsRec.accumulate(Out);

  ++ScopesDonatedTotal;
  ++GraphsDonatedTotal;
  SegmentsDonatedTotal += G.segmentCount();
  BytesDonatedTotal += Bytes;

  if (CloseScopeHook)
    CloseScopeHook(*this, LastScopeClose);
  return G;
}
