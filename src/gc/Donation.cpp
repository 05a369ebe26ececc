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

#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
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

  if (V.isPair()) {
    if (H.isWeakPair(V))
      fatalError(__FILE__, __LINE__,
                 "cannot freeze a weak pair into the shared immutable "
                 "space (weakness is mutation by the collector)");
    // Shell first, then the fields: cycles and sharing within the frozen
    // graph are preserved.
    uintptr_t *Cell = allocateShared(SpaceKind::Pair, 2);
    Value NewV = Value::pair(reinterpret_cast<PairCell *>(Cell));
    Memo.emplace(V.bits(), NewV.bits());
    Cell[0] = freezeRec(H, pairCar(V), Memo).bits();
    Cell[1] = freezeRec(H, pairCdr(V), Memo).bits();
    return NewV;
  }

  const uintptr_t Header = *V.objectHeader();
  switch (headerKind(Header)) {
  case ObjectKind::String: {
    Value S = sharedStringLocked(
        std::string_view(stringData(V), objectLength(V)));
    Memo.emplace(V.bits(), S.bits());
    return S;
  }
  case ObjectKind::Bytevector:
  case ObjectKind::Flonum: {
    const size_t Words = objectSizeInWords(Header);
    const size_t AllocWords = objectAllocWords(Header);
    uintptr_t *NewObj = allocateShared(SpaceKind::Data, AllocWords);
    std::memcpy(NewObj, V.objectHeader(), Words * sizeof(uintptr_t));
    if (AllocWords > Words)
      NewObj[Words] = 0;
    Value NewV = Value::object(NewObj);
    Memo.emplace(V.bits(), NewV.bits());
    return NewV;
  }
  case ObjectKind::Symbol: {
    Value S = internSharedLocked(H.symbolName(V));
    Memo.emplace(V.bits(), S.bits());
    return S;
  }
  case ObjectKind::Vector: {
    const size_t Len = headerLength(Header);
    const size_t AllocWords = objectAllocWords(Header);
    uintptr_t *NewObj = allocateShared(SpaceKind::Typed, AllocWords);
    NewObj[0] = Header;
    Value NewV = Value::object(NewObj);
    Memo.emplace(V.bits(), NewV.bits());
    for (size_t I = 0; I != Len; ++I)
      NewObj[1 + I] = freezeRec(H, objectField(V, I), Memo).bits();
    if (AllocWords > 1 + Len)
      NewObj[1 + Len] = 0;
    return NewV;
  }
  default:
    fatalError(__FILE__, __LINE__,
               "cannot freeze a mutable object kind into the shared "
               "immutable space");
  }
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

  // Degenerate roots need no segments: immediates and shared values are
  // valid on every shard as-is, and symbols transfer by name.
  if (!Root.isHeapPointer() || isShared(Root)) {
    G.RootBits = Root.bits();
    ++GraphsDonatedTotal;
    return G;
  }
  if (Root.isObject() && objectKind(Root) == ObjectKind::Symbol) {
    G.RootIsSymbol = true;
    G.RootSymbolName = symbolName(Root);
    ++GraphsDonatedTotal;
    return G;
  }
  if (!crossesShards(Root)) {
    if (Policy == TransferPolicy::Reject)
      return DonatedGraph();
    G.RootBits = Value::falseV().bits();
    G.SeveredEdges = 1;
    ++GraphsDonatedTotal;
    return G;
  }

  Arena &EA = Exchange->arena();
  // Copy-out lanes: in-flight donation segments carry InFlightGeneration
  // and FlagDonated; one run lock acquisition per run, never per object.
  SpaceContext Ctxs[NumSpaces];
  // Side copy map (old bits -> new bits). The sender's graph is left
  // untouched — no forwarding markers — so a send is non-destructive
  // and needs no sender-side cleanup pass afterwards.
  std::unordered_map<uintptr_t, uintptr_t> Map;
  // Newly copied cells/objects whose slots still hold sender addresses.
  std::vector<std::pair<uintptr_t *, SpaceKind>> Pending;

  auto allocDonated = [&](SpaceKind Space, size_t Words) {
    const unsigned Sp = static_cast<unsigned>(Space);
    return Ctxs[Sp].allocate(EA, Space, InFlightGeneration, Words,
                             /*Age=*/0, /*ScopeDepth=*/0,
                             SegmentInfo::FlagDonated);
  };

  // Copies one private pair or non-symbol typed object (payload raw,
  // slots fixed later) and returns the tagged bits of the copy.
  auto copyOut = [&](Value V) -> uintptr_t {
    auto Found = Map.find(V.bits());
    if (Found != Map.end())
      return Found->second;
    const SegmentInfo &Info = segInfo(V.heapAddress());
    uintptr_t NewBits;
    if (V.isPair()) {
      uintptr_t *Cell = allocDonated(Info.Space, 2);
      Cell[0] = V.pairCell()->Car;
      Cell[1] = V.pairCell()->Cdr;
      NewBits = Value::pair(reinterpret_cast<PairCell *>(Cell)).bits();
      Pending.push_back({Cell, Info.Space});
    } else {
      uintptr_t *Header = V.objectHeader();
      GENGC_ASSERT(headerKind(*Header) != ObjectKind::Forward,
                   "donateGraph found a forwarding marker");
      const size_t Words = objectSizeInWords(*Header);
      const size_t AllocWords = objectAllocWords(*Header);
      uintptr_t *NewObj = allocDonated(Info.Space, AllocWords);
      std::memcpy(NewObj, Header, Words * sizeof(uintptr_t));
      if (AllocWords > Words)
        NewObj[Words] = 0;
      NewBits = Value::object(NewObj).bits();
      if (kindHasPointers(headerKind(*Header)))
        Pending.push_back({NewObj, Info.Space});
    }
    Map.emplace(V.bits(), NewBits);
    return NewBits;
  };

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
    if (V.isObject() &&
        headerKind(*V.objectHeader()) == ObjectKind::Symbol) {
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
    *Slot = copyOut(V);
    return true;
  };

  G.RootBits = copyOut(Root);
  bool Rejected = false;
  while (!Pending.empty() && !Rejected) {
    auto [P, Space] = Pending.back();
    Pending.pop_back();
    if (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair) {
      // Weak cars are traversed strongly: a message is a value, so
      // weakly-held structure crosses too; the copies land in
      // weak-pair-space segments, so the receiver's own collections
      // resume weak semantics after adoption.
      uintptr_t CB =
          Value::pair(reinterpret_cast<PairCell *>(P)).bits();
      Rejected = !fixSlot(&P[0], /*WeakCar=*/Space == SpaceKind::WeakPair,
                          CB) ||
                 !fixSlot(&P[1], /*WeakCar=*/false, CB);
    } else {
      const uintptr_t CB = Value::object(P).bits();
      const size_t Fields = objectPointerFieldCount(*P);
      for (size_t I = 0; I != Fields && !Rejected; ++I)
        Rejected = !fixSlot(P + 1 + I, /*WeakCar=*/false, CB);
    }
  }
  if (Rejected) {
    // Nothing is sent: the runs copied so far go back to the exchange
    // arena, and the sender's graph was never touched.
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
      for (const SegmentRun &R : Ctxs[Sp].takeRuns(EA))
        EA.freeRun(R.FirstSegment, R.SegmentCount);
    return DonatedGraph();
  }

  // Seal and detach: the handle owns the runs outright from here.
  uint64_t Bytes = 0;
  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    G.Runs[Sp] = Ctxs[Sp].takeRuns(EA);
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
      AdoptedRuns[Sp].push_back(R);
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
  bool RootSymbol = false;
  if (Root.isHeapPointer()) {
    const SegmentInfo &RInfo = segInfo(Root.heapAddress());
    if (Root.isObject() && objectKind(Root) == ObjectKind::Symbol)
      RootSymbol = true;
    else if (RInfo.isShared())
      ; // Valid everywhere.
    else if (Segments.containsAddress(Root.heapAddress()) ||
             RInfo.ScopeDepth != Depth)
      return G; // Root outside the scope: nothing to hand over.
  }

  // Read-only self-containment scan of the scope's pointer-bearing
  // spaces, O(scope bytes). Every outbound edge must be an immediate, a
  // shared value, or a symbol (collected as a fixup and blanked only
  // after all checks pass). Internal edges stay as-is — that is the
  // zero-copy part. Data space is pointerless: nothing to scan.
  struct PendingFixup {
    uintptr_t *Slot;
    uintptr_t ContainerBits;
    bool WeakCar;
    Value Sym;
  };
  std::vector<PendingFixup> Fixups;
  auto Classify = [&](uintptr_t *Slot, bool WeakCar,
                      uintptr_t ContainerBits) -> bool {
    Value V = Value::fromBits(*Slot);
    if (!V.isHeapPointer())
      return true;
    const SegmentInfo &Info = segInfo(V.heapAddress());
    if (Info.isShared())
      return true;
    if (V.isObject() &&
        headerKind(*V.objectHeader()) == ObjectKind::Symbol) {
      // In-scope or not, symbols transfer by name; an in-scope symbol's
      // storage rides along as unreferenced words and is reclaimed by
      // the receiver's next collection.
      Fixups.push_back({Slot, ContainerBits, WeakCar, V});
      return true;
    }
    // Internal edges point at this scope's own exchange-arena segments.
    return !Segments.containsAddress(V.heapAddress()) &&
           Info.ScopeDepth == Depth;
  };
  auto ScanSpace = [&](SpaceKind Space) -> bool {
    const unsigned Sp = static_cast<unsigned>(Space);
    SpaceContext &Ctx = Scope.Contexts[Sp];
    Ctx.sealCurrentRun(EA);
    const std::vector<SegmentRun> &Runs = Ctx.runs();
    for (size_t R = 0; R != Runs.size(); ++R) {
      // rootcheck:allow(segment-base) — replays the scope's bump walk.
      uintptr_t *Base = EA.segmentBase(Runs[R].FirstSegment);
      const size_t Used = Ctx.usedWordsOf(EA, R);
      size_t Off = 0;
      while (Off != Used) {
        uintptr_t *P = Base + Off;
        if (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair) {
          uintptr_t CB =
              Value::pair(reinterpret_cast<PairCell *>(P)).bits();
          if (!Classify(&P[0], Space == SpaceKind::WeakPair, CB) ||
              !Classify(&P[1], /*WeakCar=*/false, CB))
            return false;
          Off += 2;
        } else {
          const uintptr_t CB = Value::object(P).bits();
          const size_t Fields = objectPointerFieldCount(*P);
          for (size_t I = 0; I != Fields; ++I)
            if (!Classify(P + 1 + I, /*WeakCar=*/false, CB))
              return false;
          Off += objectAllocWords(*P);
        }
      }
    }
    return true;
  };
  if (!ScanSpace(SpaceKind::Pair) || !ScanSpace(SpaceKind::WeakPair) ||
      !ScanSpace(SpaceKind::Typed))
    return G;

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
    Value Sym = Value::fromBits(It->second);
    if (Sym.isHeapPointer() &&
        !Segments.containsAddress(Sym.heapAddress()) &&
        segInfo(Sym.heapAddress()).ScopeDepth == Depth)
      It = SymbolTable.erase(It);
    else
      ++It;
  }

  for (const PendingFixup &F : Fixups) {
    G.Fixups.push_back({F.Slot, F.ContainerBits, F.WeakCar,
                        symbolName(F.Sym)});
    *F.Slot = Value::falseV().bits();
  }

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
