//===- tests/gc/scoped_generation_test.cpp - Request scopes (§13) --------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// Directed tests for request-scoped ephemeral generations (DESIGN.md
// §13): LIFO nesting, escape-driven graduation, guardian resurrection
// at scope exit (matching full-collection order), weak-pair breaking
// for scope-dying cars, collections with scopes open, and the stress/
// poison schedule. The statistical coverage lives in the gcfuzz scoped
// corpus; these are the readable specimens.
//
//===----------------------------------------------------------------------===//

#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "heap/SharedImmutableSpace.h"

#include <gtest/gtest.h>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

/// The stress schedule: a full collection at every allocation
/// safepoint, with reclaimed memory poisoned. Scope extents are exempt
/// from the collector's from-space (they are collected only at close),
/// so every scope invariant must hold with collections raging around
/// the open scopes.
HeapConfig stressConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.StressGC = true;
  C.PoisonFromSpace = true;
  return C;
}

TEST(ScopedGenerationTest, NestedLifoDiscipline) {
  Heap H(testConfig());
  EXPECT_EQ(H.scopeDepth(), 0u);
  H.openScope();
  Root D1(H, H.cons(Value::fixnum(1), Value::nil()));
  EXPECT_EQ(H.scopeDepth(), 1u);
  EXPECT_EQ(H.scopeDepthOf(D1.get()), 1u);
  H.openScope();
  Root D2(H, H.cons(Value::fixnum(2), Value::nil()));
  EXPECT_EQ(H.scopeDepth(), 2u);
  EXPECT_EQ(H.scopeDepthOf(D2.get()), 2u);
  EXPECT_EQ(H.scopeDepthOf(D1.get()), 1u)
      << "outer-scope objects keep their depth while inner scopes open";
  // Closing the inner scope graduates its rooted survivor to depth 1.
  H.closeScope();
  EXPECT_EQ(H.scopeDepth(), 1u);
  EXPECT_EQ(H.scopeDepthOf(D2.get()), 1u);
  EXPECT_EQ(pairCar(D2.get()).asFixnum(), 2);
  H.closeScope();
  EXPECT_EQ(H.scopeDepth(), 0u);
  EXPECT_EQ(H.scopeDepthOf(D1.get()), 0u);
  EXPECT_EQ(H.scopeDepthOf(D2.get()), 0u);
  H.verifyHeap();
}

TEST(ScopedGenerationTest, ScopedExtentIsRaii) {
  Heap H(testConfig());
  {
    ScopedExtent Outer(H);
    EXPECT_EQ(H.scopeDepth(), 1u);
    {
      ScopedExtent Inner(H);
      EXPECT_EQ(H.scopeDepth(), 2u);
    }
    EXPECT_EQ(H.scopeDepth(), 1u);
  }
  EXPECT_EQ(H.scopeDepth(), 0u);
}

// The heart of the mechanism: a store of a scope pointer into an old
// object is observed by the write barrier (the scope's escape set), so
// at close the referent graduates instead of dying with the scope.
TEST(ScopedGenerationTest, EscapeViaOldStoreGraduates) {
  Heap H(testConfig());
  Root Old(H, H.cons(Value::falseV(), Value::nil()));
  H.collectFull(); // Promote the container out of generation 0.
  H.openScope();
  {
    Root Inner(H, H.cons(Value::fixnum(42), Value::fixnum(43)));
    H.setCar(Old.get(), Inner.get()); // old -> scope: escape recorded.
  }
  // The only strong reference now lives in the old pair's car.
  H.closeScope();
  const ScopeCloseStats &S = H.lastScopeClose();
  EXPECT_GE(S.ObjectsEvacuated, 1u);
  Value Esc = pairCar(Old.get());
  ASSERT_TRUE(Esc.isPair());
  EXPECT_EQ(H.scopeDepthOf(Esc), 0u);
  EXPECT_EQ(pairCar(Esc).asFixnum(), 42);
  EXPECT_EQ(pairCdr(Esc).asFixnum(), 43);
  H.verifyHeap();
}

TEST(ScopedGenerationTest, UnreachableScopeObjectsDieUntraced) {
  Heap H(testConfig());
  H.openScope();
  for (int I = 0; I != 1000; ++I)
    (void)H.cons(Value::fixnum(I), Value::nil()); // All garbage.
  Root Kept(H, H.cons(Value::fixnum(7), Value::nil()));
  H.closeScope();
  const ScopeCloseStats &S = H.lastScopeClose();
  EXPECT_GT(S.BytesInScope, S.BytesEvacuated)
      << "the garbage cons cells must not be evacuated";
  EXPECT_EQ(pairCar(Kept.get()).asFixnum(), 7);
  const ScopeTotals &T = H.scopeTotals();
  EXPECT_EQ(T.ScopesOpened, 1u);
  EXPECT_EQ(T.ScopesClosed, 1u);
  EXPECT_EQ(T.BytesReclaimed, S.BytesInScope - S.BytesEvacuated);
  H.verifyHeap();
}

// Guardian resurrection at scope exit must match what a full collection
// would deliver: same tconc, same entry order, objects intact. Run the
// identical protect sequence both ways and compare the retrieve
// transcripts.
TEST(ScopedGenerationTest, GuardianResurrectionOrderMatchesFullGc) {
  auto runScenario = [](bool Scoped) {
    Heap H(testConfig());
    Guardian G(H);
    if (Scoped)
      H.openScope();
    {
      Root A(H, H.cons(H.intern("first"), Value::nil()));
      Root B(H, H.cons(H.intern("second"), Value::nil()));
      G.protect(A.get());
      G.protect(B.get());
    } // Both inaccessible.
    if (Scoped)
      H.closeScope();
    else
      H.collectFull();
    std::vector<std::string> Order;
    for (Value V = G.retrieve(); !V.isFalse(); V = G.retrieve()) {
      EXPECT_TRUE(V.isPair());
      Order.push_back(H.symbolName(pairCar(V)));
    }
    H.verifyHeap();
    return Order;
  };
  const std::vector<std::string> AtExit = runScenario(/*Scoped=*/true);
  const std::vector<std::string> AtGc = runScenario(/*Scoped=*/false);
  ASSERT_EQ(AtExit.size(), 2u);
  EXPECT_EQ(AtExit, AtGc)
      << "scope-exit resurrection order must match full-GC order";
  EXPECT_EQ(AtExit[0], "first");
  EXPECT_EQ(AtExit[1], "second");
}

// A scope object that graduates (still reachable) must NOT be
// delivered at scope exit; its guardian entry re-parks and fires at a
// later proof of inaccessibility, exactly like a survivor of an
// ordinary collection.
TEST(ScopedGenerationTest, ReachableGuardedObjectReparksAtScopeExit) {
  Heap H(testConfig());
  Guardian G(H);
  H.openScope();
  Root Kept(H, H.cons(Value::fixnum(5), Value::nil()));
  G.protect(Kept.get());
  H.closeScope();
  EXPECT_TRUE(G.retrieve().isFalse())
      << "still rooted: must not be resurrected at scope exit";
  EXPECT_GE(H.lastScopeClose().ProtectedEntriesKept, 1u);
  Kept = Value::nil();
  H.collectFull();
  Root Y(H, G.retrieve());
  ASSERT_TRUE(Y.get().isPair()) << "re-parked entry fires at the later GC";
  EXPECT_EQ(pairCar(Y.get()).asFixnum(), 5);
  H.verifyHeap();
}

TEST(ScopedGenerationTest, WeakPairBrokenForScopeDyingCar) {
  Heap H(testConfig());
  Root Dying(H, Value::nil()), Escaping(H, Value::nil());
  H.openScope();
  {
    Root A(H, H.cons(Value::fixnum(1), Value::nil()));
    Root B(H, H.cons(Value::fixnum(2), Value::nil()));
    Dying = H.weakCons(A.get(), Value::nil());
    Escaping = H.weakCons(B.get(), B.get()); // Strong ref via the cdr.
  }
  H.closeScope();
  EXPECT_TRUE(pairCar(Dying.get()).isFalse())
      << "weak car of a scope-dying object breaks at close";
  ASSERT_TRUE(pairCar(Escaping.get()).isPair())
      << "weak car of a graduating object is updated, not broken";
  EXPECT_EQ(pairCar(pairCar(Escaping.get())).asFixnum(), 2);
  EXPECT_GE(H.lastScopeClose().WeakPointersBroken, 1u);
  H.verifyHeap();
}

// Ordinary collections — including full ones — must run correctly with
// scopes open: scope residents are exempt from the collected extent
// (their segments are not from-space) but their outgoing pointers into
// the ladder are scope-held roots.
TEST(ScopedGenerationTest, FullGcWhileScopesOpen) {
  Heap H(testConfig());
  Root Old(H, H.cons(Value::fixnum(10), Value::nil()));
  H.openScope();
  Root InScope(H, H.cons(Value::fixnum(20), Old.get()));
  H.openScope();
  // An inner-scope object pointing at a generation-0 object: the
  // collection must trace through the scope resident.
  Root YoungTarget(H, H.cons(Value::fixnum(30), Value::nil()));
  Root Inner(H, H.cons(YoungTarget.get(), InScope.get()));
  YoungTarget = Value::nil();
  H.collectFull();
  EXPECT_EQ(H.scopeDepth(), 2u) << "collection must not disturb scopes";
  EXPECT_EQ(H.scopeDepthOf(Inner.get()), 2u);
  EXPECT_EQ(H.scopeDepthOf(InScope.get()), 1u);
  ASSERT_TRUE(pairCar(Inner.get()).isPair());
  EXPECT_EQ(pairCar(pairCar(Inner.get())).asFixnum(), 30);
  EXPECT_EQ(pairCar(pairCdr(Inner.get())).asFixnum(), 20);
  H.verifyHeap();
  H.closeScope();
  H.closeScope();
  EXPECT_EQ(pairCar(pairCar(Inner.get())).asFixnum(), 30);
  H.verifyHeap();
}

// The same request-churn shape under the stress schedule: a full
// poisoning collection at every safepoint while scopes open, allocate,
// escape, and close. Any scope segment wrongly treated as from-space,
// any unpoisoned stale pointer, or any missed escape dies loudly here.
TEST(ScopedGenerationTest, RequestChurnUnderStressAndPoison) {
  Heap H(stressConfig());
  Root Keep(H, H.makeVector(8, Value::falseV()));
  for (int Request = 0; Request != 25; ++Request) {
    ScopedExtent Extent(H);
    Root Local(H, Value::nil());
    for (int I = 0; I != 40; ++I)
      Local = H.cons(Value::fixnum(Request * 100 + I), Local.get());
    // One value escapes per request via a barriered old-store.
    H.vectorSet(Keep.get(), Request % 8, Local.get());
  }
  for (size_t I = 0; I != 8; ++I) {
    Value Chain = objectField(Keep.get(), I);
    ASSERT_TRUE(Chain.isPair());
    EXPECT_EQ(H.scopeDepthOf(Chain), 0u);
  }
  EXPECT_EQ(H.scopeDepth(), 0u);
  EXPECT_EQ(H.scopeTotals().ScopesClosed, 25u);
  H.collectFull();
  H.verifyHeap();
}

// Nested request churn with guardians under stress: inner scopes
// protect, close, and deliver while outer scopes stay open.
TEST(ScopedGenerationTest, NestedGuardianChurnUnderStress) {
  Heap H(stressConfig());
  Guardian G(H);
  unsigned Delivered = 0;
  for (int Outer = 0; Outer != 6; ++Outer) {
    ScopedExtent OuterExtent(H);
    for (int Inner = 0; Inner != 4; ++Inner) {
      ScopedExtent InnerExtent(H);
      {
        Root Doomed(H, H.cons(Value::fixnum(Outer * 10 + Inner),
                              Value::nil()));
        G.protect(Doomed.get());
      }
    } // Each inner close must deliver its doomed pair.
    for (Value V = G.retrieve(); !V.isFalse(); V = G.retrieve()) {
      EXPECT_TRUE(V.isPair());
      ++Delivered;
    }
  }
  EXPECT_EQ(Delivered, 24u)
      << "every inner-scope doomed object is delivered exactly once";
  H.verifyHeap();
}

//===----------------------------------------------------------------------===//
// Wholesale scope donation (DESIGN.md §14): a donation scope allocates
// its nursery in the exchange arena, so a self-contained scope changes
// owner at close by retagging — zero evacuation, zero copies.
//===----------------------------------------------------------------------===//

HeapConfig donationConfig(SharedImmutableSpace &X) {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  C.Exchange = &X;
  return C;
}

TEST(ScopeDonationTest, SelfContainedScopeClosesByHandover) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(donationConfig(X));
  Heap Receiver(donationConfig(X));

  Sender.openDonationScope();
  // Build the whole message inside the scope, unrooted (AutoCollect is
  // off, so nothing collects it out from under us).
  Value L = Value::nil();
  for (int I = 99; I >= 0; --I)
    L = Sender.cons(Value::fixnum(I), L);
  Value Vec = Sender.makeVector(3, Value::falseV());
  Sender.vectorSet(Vec, 0, L);
  Sender.vectorSet(Vec, 1, Sender.makeString("wholesale"));
  Value Msg = Sender.cons(L, Vec);

  // The scope's nursery is already donation-tagged exchange storage;
  // the close changes its owner, not the segment count.
  const uint64_t InFlightBefore = X.donatedSegmentsInUse();
  EXPECT_GT(InFlightBefore, 0u);
  DonatedGraph G = Sender.tryCloseScopeDonating(Msg);
  ASSERT_FALSE(G.empty()) << "self-contained scope must hand over";
  EXPECT_EQ(Sender.scopeDepth(), 0u) << "the handover IS the close";
  EXPECT_EQ(Sender.scopesDonatedWholesale(), 1u);
  EXPECT_GT(G.segmentCount(), 0u);
  EXPECT_EQ(G.Bytes, Sender.lastScopeClose().BytesInScope)
      << "close stats report the donated bytes, not an evacuation";
  EXPECT_EQ(X.donatedSegmentsInUse(), InFlightBefore)
      << "zero-copy close: the same segments change hands";
  EXPECT_EQ(X.donatedSegmentsInUse(), G.segmentCount());
  Sender.verifyHeap();

  // Adoption retags the same segments young; no per-object copy.
  const size_t ReceiverSegsBefore = Receiver.segmentsInUse();
  Root Adopted(Receiver, Receiver.adoptDonatedGraph(G));
  EXPECT_TRUE(G.empty());
  EXPECT_EQ(Receiver.segmentsInUse(), ReceiverSegsBefore)
      << "zero-copy: nothing lands in the receiver's private arena";
  ASSERT_TRUE(Adopted.get().isPair());
  Value P = pairCar(Adopted.get());
  for (int I = 0; I != 100; ++I) {
    ASSERT_TRUE(P.isPair());
    EXPECT_EQ(pairCar(P).asFixnum(), I);
    P = pairCdr(P);
  }
  EXPECT_TRUE(P.isNil());
  Value RVec = pairCdr(Adopted.get());
  EXPECT_EQ(objectField(RVec, 0).bits(), pairCar(Adopted.get()).bits())
      << "internal sharing survives the handover by identity";
  EXPECT_EQ(Receiver.generationOf(Adopted.get()), 0u);
  // Generation 0: a minor collection hands the segments back.
  Receiver.collectMinor();
  EXPECT_EQ(X.donatedSegmentsInUse(), 0u);
  EXPECT_EQ(objectField(pairCdr(Adopted.get()), 0).bits(),
            pairCar(Adopted.get()).bits())
      << "sharing survives the evacuation out of the adopted runs";
  Receiver.verifyHeap();
}

TEST(ScopeDonationTest, EscapeVetoesWholesaleClose) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap H(donationConfig(X));
  Root Keep(H, H.cons(Value::falseV(), Value::nil()));

  H.openDonationScope();
  Value Inner = H.cons(Value::fixnum(1), Value::nil());
  H.setCar(Keep.get(), Inner); // Escape: outside container sees in.
  DonatedGraph G = H.tryCloseScopeDonating(Inner);
  EXPECT_TRUE(G.empty());
  EXPECT_EQ(H.scopeDepth(), 1u)
      << "a failed handover leaves the scope open for the fallback";
  EXPECT_EQ(H.scopesDonatedWholesale(), 0u);

  // The fallback is the ordinary evacuating close + copy-out donation.
  H.closeScope();
  EXPECT_EQ(H.scopeDepthOf(pairCar(Keep.get())), 0u);
  DonatedGraph G2 = H.donateGraph(pairCar(Keep.get()));
  EXPECT_FALSE(G2.empty());
  EXPECT_EQ(H.graphsDonated(), 1u);
  H.verifyHeap();
}

TEST(ScopeDonationTest, RootReachingInVetoesWholesaleClose) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap H(donationConfig(X));
  H.openDonationScope();
  Root Pin(H, H.cons(Value::fixnum(7), Value::nil()));
  Value Msg = Pin.get();
  DonatedGraph G = H.tryCloseScopeDonating(Msg);
  EXPECT_TRUE(G.empty()) << "a live root into the scope blocks handover";
  EXPECT_EQ(H.scopeDepth(), 1u);

  // Dropping the root lifts the veto; the same scope then hands over.
  Pin = Value::nil();
  DonatedGraph G2 = H.tryCloseScopeDonating(Msg);
  ASSERT_FALSE(G2.empty());
  EXPECT_EQ(H.scopeDepth(), 0u);
  H.verifyHeap();
}

TEST(ScopeDonationTest, OutboundEdgeVetoesWholesaleClose) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap H(donationConfig(X));
  Root Old(H, H.cons(Value::fixnum(9), Value::nil()));
  H.openDonationScope();
  // The cdr points out of the scope into the private heap: the
  // self-containment scan must refuse (that edge cannot be retagged).
  Value Inner = H.cons(Value::fixnum(1), Old.get());
  DonatedGraph G = H.tryCloseScopeDonating(Inner);
  EXPECT_TRUE(G.empty());
  EXPECT_EQ(H.scopeDepth(), 1u);
  // Rooted only now: a root into the scope would itself veto the
  // handover above. The fallback close must graduate the survivor.
  Root Survivor(H, Inner);
  H.closeScope();
  EXPECT_EQ(pairCar(pairCdr(Survivor.get())).asFixnum(), 9)
      << "fallback close still graduates the survivor intact";
  H.verifyHeap();
}

TEST(ScopeDonationTest, WholesaleCloseReintersSymbolsByName) {
  SharedImmutableSpace X(16u * 1024 * 1024);
  Heap Sender(donationConfig(X));
  Heap Receiver(donationConfig(X));

  Sender.openDonationScope();
  Value Sym = Sender.intern("wholesale-route");
  Value Msg = Sender.cons(Sym, Value::nil());
  DonatedGraph G = Sender.tryCloseScopeDonating(Msg);
  ASSERT_FALSE(G.empty());
  ASSERT_EQ(G.Fixups.size(), 1u)
      << "symbols travel by name, not by storage identity";

  // The sender's intern entry left with the scope: re-interning mints a
  // fresh symbol, exactly as under a weak symbol table.
  EXPECT_NE(Sender.intern("wholesale-route").bits(), Sym.bits());

  Root Adopted(Receiver, Receiver.adoptDonatedGraph(G));
  Value RSym = pairCar(Adopted.get());
  ASSERT_TRUE(RSym.isHeapPointer());
  EXPECT_EQ(Receiver.symbolName(RSym), "wholesale-route");
  EXPECT_EQ(RSym.bits(), Receiver.intern("wholesale-route").bits())
      << "the fixup resolves to the receiver's interned symbol";
  Receiver.collectFull();
  Receiver.verifyHeap();
}

} // namespace
