//===- gc/Verify.cpp - Whole-heap invariant checker -----------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Heap::verifyHeap walks every live object twice: first to build the set
/// of valid object addresses, then to check that every reference lands on
/// a valid object, that no forwarding markers leaked out of a collection,
/// that weak cars are live-or-#f, and that every old-to-young pointer is
/// covered by the appropriate remembered set. Tests call this after every
/// interesting scenario.
///
/// Failures are accumulated, not fatal one at a time: the verifier
/// finishes its walk, reports *every* violated invariant — each with the
/// segment index, generation, space kind, and tenure age of the offending
/// location — and only then aborts. One rooting bug typically corrupts
/// several invariants at once; seeing the full set localizes it far
/// faster than the first symptom alone.
///
//===----------------------------------------------------------------------===//

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "heap/SharedImmutableSpace.h"
#include "support/PtrHashSet.h"

using namespace gengc;

namespace {

struct Verifier {
  using ContextsArray =
      const SpaceContext (*)[MaxGenerations][MaxTenureCopies];
  using ScopeStackArray =
      const std::vector<std::unique_ptr<ScopedGeneration>>;

  Arena &A;  ///< The heap's private arena.
  Arena &EA; ///< The exchange arena (shared + adopted/donation segments).
  const HeapConfig &Cfg;
  ContextsArray Contexts;
  ScopeStackArray &Scopes;
  /// Adopted donation runs (Heap::AdoptedRuns), per space: exchange-arena
  /// segments that are part of this heap's generation 0.
  const std::vector<SegmentRun> *Adopted;
  PtrHashSet ValidBits; // Tagged bits of every live object.
  std::vector<std::string> Failures;

  Verifier(Arena &A, Arena &EA, const HeapConfig &Cfg,
           ContextsArray Contexts, ScopeStackArray &Scopes,
           const std::vector<SegmentRun> *Adopted)
      : A(A), EA(EA), Cfg(Cfg), Contexts(Contexts), Scopes(Scopes),
        Adopted(Adopted) {}

  bool inAnyArena(uintptr_t Address) const {
    return A.containsAddress(Address) || EA.containsAddress(Address);
  }

  /// Segment info for any address this heap can reference (mirrors
  /// Heap::segInfo).
  const SegmentInfo &infoOf(uintptr_t Address) const {
    if (A.containsAddress(Address))
      return A.infoFor(Address);
    return EA.infoFor(Address);
  }

  /// Coordinates of \p Address: segment index, generation, space kind,
  /// and tenure age, from the segment information table.
  std::string describeAddress(uintptr_t Address) {
    if (A.containsAddress(Address))
      return describeSegment(A, A.segmentIndexOf(Address));
    if (EA.containsAddress(Address))
      return describeSegment(EA, EA.segmentIndexOf(Address));
    return "[address outside the arena]";
  }

  std::string describeSegment(const Arena &In, uint32_t Seg) {
    const SegmentInfo &Info = In.infoAt(Seg);
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "[%ssegment %" PRIu32
                  ", generation %u, space %s, age %u]",
                  &In == &EA ? "exchange " : "", Seg,
                  static_cast<unsigned>(Info.Generation),
                  spaceKindName(Info.Space),
                  static_cast<unsigned>(Info.Age));
    return Buf;
  }

  /// Records a violation with no meaningful heap coordinates.
  void fail(const char *Msg) { Failures.emplace_back(Msg); }

  /// Records a violation located at \p Address.
  void failAt(uintptr_t Address, const char *Msg) {
    Failures.emplace_back(std::string(Msg) + " " + describeAddress(Address));
  }

  /// Records a violation attributed to segment \p Seg of arena \p In.
  void failSegment(const Arena &In, uint32_t Seg, const char *Msg) {
    Failures.emplace_back(std::string(Msg) + " " + describeSegment(In, Seg));
  }

  /// Reports every accumulated violation and aborts. No-op on a clean
  /// heap.
  void finish() {
    if (Failures.empty())
      return;
    std::fprintf(stderr,
                 "gengc verifyHeap: %zu invariant violation(s):\n",
                 Failures.size());
    for (const std::string &F : Failures)
      std::fprintf(stderr, "  verify: %s\n", F.c_str());
    std::abort();
  }

  /// Walks the objects of one run with a known used extent, invoking
  /// Fn(WordPtr, Space).
  template <typename Fn>
  void walkRun(Arena &In, const SegmentRun &R, size_t Used, SpaceKind Space,
               Fn Visit) {
    // rootcheck:allow(segment-base) — the verifier replays the
    // allocator's bump walk and must address segments directly.
    uintptr_t *Base = In.segmentBase(R.FirstSegment);
    size_t Off = 0;
    while (Off < Used) {
      uintptr_t *P = Base + Off;
      size_t Step;
      if (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair)
        Step = 2;
      else
        Step = objectAllocWords(*P);
      Visit(P, Space);
      Off += Step;
    }
    if (Off != Used)
      failSegment(In, R.FirstSegment,
                  "object walk overshot the run's used extent");
  }

  /// Walks every object in a context's runs. \p In is the arena the
  /// context allocates from — the exchange arena for donation scopes.
  template <typename Fn>
  void walkContext(Arena &In, const SpaceContext &Ctx, SpaceKind Space,
                   Fn Visit) {
    const std::vector<SegmentRun> &Runs = Ctx.runs();
    for (size_t RI = 0; RI != Runs.size(); ++RI)
      walkRun(In, Runs[RI], Ctx.usedWordsOf(In, RI), Space, Visit);
  }

  template <typename Fn> void walkHeap(Fn Visit) {
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
      for (unsigned G = 0; G != Cfg.Generations; ++G)
        for (unsigned Age = 0; Age != Cfg.TenureCopies; ++Age)
          walkContext(A, contextOf(Sp, G, Age), static_cast<SpaceKind>(Sp),
                      Visit);
      // Adopted donation runs are generation 0 living in the exchange
      // arena; their runs are sealed, so UsedWords is authoritative.
      for (const SegmentRun &R : Adopted[Sp])
        walkRun(EA, R, R.UsedWords, static_cast<SpaceKind>(Sp), Visit);
    }
    for (const auto &SG : Scopes)
      for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
        walkContext(*SG->ScopeArena, SG->Contexts[Sp],
                    static_cast<SpaceKind>(Sp), Visit);
  }

  const SpaceContext &contextOf(unsigned Sp, unsigned G, unsigned Age) {
    return Contexts[Sp][G][Age];
  }

  void checkRunTagging(const Arena &In, const SegmentRun &R, SpaceKind Space,
                       unsigned Gen, unsigned Age, unsigned Depth,
                       bool ExpectDonated) {
    for (uint32_t Seg = R.FirstSegment; Seg != R.FirstSegment + R.SegmentCount;
         ++Seg) {
      const SegmentInfo &Info = In.infoAt(Seg);
      if (!Info.inUse())
        failSegment(In, Seg, "live run contains a free segment");
      if (Info.isFromSpace())
        failSegment(In, Seg, "live segment still flagged as from-space");
      if (Info.isShared())
        failSegment(In, Seg, "heap-owned segment tagged as shared");
      if (Info.isDonated() != ExpectDonated)
        failSegment(In, Seg,
                    ExpectDonated
                        ? "exchange-arena segment lost its donation flag"
                        : "private segment tagged as donated");
      if (Info.Space != Space)
        failSegment(In, Seg, "segment space tag disagrees with its context");
      if (Info.Generation != Gen)
        failSegment(In, Seg,
                    "segment generation tag disagrees with its context");
      if (Info.Age != Age)
        failSegment(In, Seg,
                    "segment tenure-age tag disagrees with its context");
      if (Info.ScopeDepth != Depth)
        failSegment(In, Seg,
                    "segment scope-depth tag disagrees with its context");
    }
  }

  void checkSegmentTagging(const Arena &In, const SpaceContext &Ctx,
                           SpaceKind Space, unsigned Gen, unsigned Age,
                           unsigned Depth, bool ExpectDonated) {
    for (const SegmentRun &R : Ctx.runs())
      checkRunTagging(In, R, Space, Gen, Age, Depth, ExpectDonated);
  }

  void registerObject(uintptr_t *P, SpaceKind Space) {
    if (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair) {
      ValidBits.insert(Value::pair(reinterpret_cast<PairCell *>(P)).bits());
      return;
    }
    ObjectKind K = headerKind(*P);
    if (K == ObjectKind::Forward)
      failAt(reinterpret_cast<uintptr_t>(P),
             "forwarding header in live heap");
    bool Data = Space == SpaceKind::Data;
    if (Data == kindHasPointers(K) && K != ObjectKind::Forward)
      failAt(reinterpret_cast<uintptr_t>(P), "object kind in the wrong space");
    ValidBits.insert(Value::object(P).bits());
  }

  void collectValidObjects() {
    auto Register = [&](uintptr_t *P, SpaceKind Space) {
      registerObject(P, Space);
    };
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
      for (unsigned G = 0; G != Cfg.Generations; ++G)
       for (unsigned Age = 0; Age != Cfg.TenureCopies; ++Age) {
        const SpaceContext &Ctx = contextOf(Sp, G, Age);
        checkSegmentTagging(A, Ctx, static_cast<SpaceKind>(Sp), G, Age,
                            /*Depth=*/0, /*ExpectDonated=*/false);
        walkContext(A, Ctx, static_cast<SpaceKind>(Sp), Register);
       }
      // Adopted donation runs: exchange-arena segments retagged to
      // generation 0, still carrying the donation flag.
      for (const SegmentRun &R : Adopted[Sp]) {
        checkRunTagging(EA, R, static_cast<SpaceKind>(Sp),
                        /*Gen=*/0, /*Age=*/0, /*Depth=*/0,
                        /*ExpectDonated=*/true);
        walkRun(EA, R, R.UsedWords, static_cast<SpaceKind>(Sp), Register);
      }
    }
    // Open request scopes: their segments are tagged (generation 0,
    // age 0, the scope's depth) and their objects are as valid as any.
    // Donation scopes allocate from the exchange arena with the donation
    // flag pre-set.
    for (const auto &SG : Scopes)
      for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
        const SpaceContext &Ctx = SG->Contexts[Sp];
        checkSegmentTagging(*SG->ScopeArena, Ctx, static_cast<SpaceKind>(Sp),
                            /*Gen=*/0, /*Age=*/0, SG->Depth,
                            /*ExpectDonated=*/SG->Donation);
        walkContext(*SG->ScopeArena, Ctx, static_cast<SpaceKind>(Sp),
                    Register);
      }
  }

  void checkValue(Value V, const char *What) {
    if (V.isImmediate()) {
      if (V.isForwardMarker())
        fail("forward marker escaped into live data");
      return;
    }
    if (V.isFixnum())
      return;
    if (!A.containsAddress(V.heapAddress())) {
      if (!EA.containsAddress(V.heapAddress())) {
        fail("heap pointer outside the arena");
        return;
      }
      const SegmentInfo &Info = EA.infoFor(V.heapAddress());
      if (Info.isShared())
        return; // Shared immutables are immortal and never move; the
                // publisher guarantees object starts, which this heap
                // cannot re-derive (the shared bump frontier is private
                // to the SharedImmutableSpace).
      if (!Info.isDonated()) {
        failAt(V.heapAddress(),
               "pointer into a non-shared, non-donated exchange segment");
        return;
      }
      // Donated segments this heap references must be its own: adopted
      // runs or an open donation scope, both registered in ValidBits.
    }
    if (!ValidBits.contains(V.bits()))
      failAt(V.heapAddress(), What);
  }

  unsigned genOf(Value V) { return infoOf(V.heapAddress()).Generation; }

  unsigned depthOf(Value V) { return infoOf(V.heapAddress()).ScopeDepth; }

  void checkField(Value Container, Value Field, bool WeakField,
                  const PtrHashSet *Remembered,
                  const PtrHashSet *WeakRemembered) {
    checkValue(Field, WeakField
                          ? "weak car points to a reclaimed object"
                          : "strong field points to a reclaimed object");
    if (!Field.isHeapPointer() || !inAnyArena(Field.heapAddress()))
      return;
    // Shared immutables are barrier-exempt: SharedGeneration (0xFF) never
    // compares below any container generation, so the generational rule
    // below is vacuous for them by construction.
    const unsigned CD = depthOf(Container), FD = depthOf(Field);
    if (FD > CD) {
      // A pointer into a deeper scope must be covered by that scope's
      // escape set — the scope analogue of the remembered-set rule.
      const ScopedGeneration &SG = *Scopes[FD - 1];
      const PtrHashSet &Set = WeakField ? SG.WeakEscapes : SG.Escapes;
      if (!Set.contains(Container.bits()))
        failAt(Container.heapAddress(),
               WeakField ? "weak into-scope car missing from the scope's "
                           "weak escape set"
                         : "into-scope pointer missing from the scope's "
                           "escape set");
      return;
    }
    if (CD != 0)
      return; // Scope containers are rescanned in full at every
              // collection and close; outward edges need no tracking.
    unsigned CG = genOf(Container), FG = genOf(Field);
    if (FG >= CG)
      return;
    const PtrHashSet *Set = WeakField ? WeakRemembered : Remembered;
    if (!Set->contains(Container.bits()))
      failAt(Container.heapAddress(),
             WeakField ? "weak old-to-young car missing from the weak "
                         "remembered set"
                       : "old-to-young pointer missing from the remembered "
                         "set");
  }

  void checkReferences(const PtrHashSet *Remembered,
                       const PtrHashSet *WeakRemembered) {
    walkHeap([&](uintptr_t *P, SpaceKind Space) {
      if (Space == SpaceKind::Pair || Space == SpaceKind::WeakPair) {
        Value Pair = Value::pair(reinterpret_cast<PairCell *>(P));
        checkField(Pair, Value::fromBits(P[0]),
                   /*WeakField=*/Space == SpaceKind::WeakPair,
                   &Remembered[genOf(Pair)], &WeakRemembered[genOf(Pair)]);
        checkField(Pair, Value::fromBits(P[1]), /*WeakField=*/false,
                   &Remembered[genOf(Pair)], &WeakRemembered[genOf(Pair)]);
        return;
      }
      if (Space == SpaceKind::Data)
        return;
      Value Obj = Value::object(P);
      const size_t Fields = objectPointerFieldCount(*P);
      for (size_t I = 0; I != Fields; ++I)
        checkField(Obj, Value::fromBits(P[1 + I]), /*WeakField=*/false,
                   &Remembered[genOf(Obj)], &WeakRemembered[genOf(Obj)]);
    });
  }
};

} // namespace

void Heap::verifyHeap() {
  GENGC_ASSERT(!InGc, "verifyHeap during collection");
  Verifier V(Segments, Exchange->arena(), Cfg, Contexts, ScopeStack,
             AdoptedRuns);
  V.collectValidObjects();
  V.checkReferences(Remembered, WeakRemembered);

  // Roots must reference live objects.
  for (Value *Slot : RootSlots)
    V.checkValue(*Slot, "root slot references a reclaimed object");
  for (RootVector *Vec : RootVectors)
    for (Value &Val : Vec->slots())
      V.checkValue(Val, "root vector references a reclaimed object");

  // Protected-list entries: objects may be anything; tconcs are pairs.
  auto CheckProtected = [&](const std::vector<ProtectedEntry> &Entries) {
    for (const ProtectedEntry &E : Entries) {
      V.checkValue(Value::fromBits(E.ObjectBits),
                   "protected entry references a reclaimed object");
      V.checkValue(Value::fromBits(E.AgentBits),
                   "protected entry references a reclaimed agent");
      Value Tconc = Value::fromBits(E.TconcBits);
      if (!Tconc.isPair())
        V.fail("protected entry's tconc is not a pair");
      else
        V.checkValue(Tconc, "protected entry's tconc was reclaimed");
    }
  };
  for (unsigned G = 0; G != Cfg.Generations; ++G)
    CheckProtected(Protected[G]);
  for (const auto &SG : ScopeStack) {
    CheckProtected(SG->Protected);
    // Escape-set containers must themselves be live objects: dead ones
    // are dropped by the collector's fixup at every collection.
    for (uintptr_t Bits : SG->Escapes.takeSnapshot())
      V.checkValue(Value::fromBits(Bits),
                   "escape set references a reclaimed container");
    for (uintptr_t Bits : SG->WeakEscapes.takeSnapshot())
      V.checkValue(Value::fromBits(Bits),
                   "weak escape set references a reclaimed container");
  }

  // Symbol-table entries must be live symbols.
  for (auto &Entry : SymbolTable) {
    Value Sym = Value::fromBits(Entry.second);
    V.checkValue(Sym, "symbol table entry references a reclaimed object");
    if (Sym.isObject() && V.ValidBits.contains(Sym.bits()) && !isSymbol(Sym))
      V.fail("symbol table entry is not a symbol");
  }

  V.finish();
}
