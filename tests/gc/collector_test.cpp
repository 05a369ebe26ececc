//===- tests/gc/collector_test.cpp - Collection correctness --------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"
#include "gc/Roots.h"

#include <gtest/gtest.h>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

TEST(CollectorTest, RootedPairSurvivesAndMoves) {
  Heap H(testConfig());
  Root P(H, H.cons(Value::fixnum(10), Value::fixnum(20)));
  Value Before = P.get();
  H.collectMinor();
  Value After = P.get();
  EXPECT_NE(Before, After) << "survivor should be copied to generation 1";
  EXPECT_EQ(pairCar(After).asFixnum(), 10);
  EXPECT_EQ(pairCdr(After).asFixnum(), 20);
  EXPECT_EQ(H.generationOf(After), 1u);
  H.verifyHeap();
}

TEST(CollectorTest, GarbageIsReclaimed) {
  Heap H(testConfig());
  for (int I = 0; I != 10000; ++I)
    H.cons(Value::fixnum(I), Value::fixnum(I));
  size_t Before = H.liveBytes();
  H.collectMinor();
  size_t After = H.liveBytes();
  EXPECT_LT(After, Before / 10) << "dead pairs must be reclaimed";
  H.verifyHeap();
}

TEST(CollectorTest, DeepListSurvives) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int I = 0; I != 5000; ++I)
    L = H.cons(Value::fixnum(I), L);
  H.collectMinor();
  Value P = L.get();
  for (int I = 4999; I >= 0; --I) {
    ASSERT_TRUE(P.isPair());
    ASSERT_EQ(pairCar(P).asFixnum(), I);
    P = pairCdr(P);
  }
  EXPECT_TRUE(P.isNil());
  H.verifyHeap();
}

TEST(CollectorTest, SharedStructurePreservesIdentity) {
  Heap H(testConfig());
  Root Shared(H, H.cons(Value::fixnum(1), Value::nil()));
  Root A(H, H.cons(Shared.get(), Value::nil()));
  Root B(H, H.cons(Shared.get(), Value::nil()));
  H.collectMinor();
  EXPECT_EQ(pairCar(A.get()), pairCar(B.get()))
      << "sharing must be preserved (copied exactly once)";
  EXPECT_EQ(pairCar(A.get()), Shared.get());
  H.verifyHeap();
}

TEST(CollectorTest, CyclicStructureSurvives) {
  Heap H(testConfig());
  Root A(H, H.cons(Value::fixnum(1), Value::nil()));
  Root B(H, H.cons(Value::fixnum(2), A.get()));
  H.setCdr(A.get(), B.get()); // A -> B -> A cycle.
  H.collectMinor();
  EXPECT_EQ(pairCdr(pairCdr(A.get())), A.get()) << "cycle must close";
  EXPECT_EQ(pairCar(pairCdr(A.get())).asFixnum(), 2);
  H.verifyHeap();
}

TEST(CollectorTest, PromotionThroughGenerations) {
  Heap H(testConfig());
  Root P(H, H.cons(Value::fixnum(7), Value::nil()));
  EXPECT_EQ(H.generationOf(P.get()), 0u);
  H.collect(0);
  EXPECT_EQ(H.generationOf(P.get()), 1u);
  H.collect(1);
  EXPECT_EQ(H.generationOf(P.get()), 2u);
  H.collect(2);
  EXPECT_EQ(H.generationOf(P.get()), 3u);
  // Oldest generation: survivors of a collection of generation n stay
  // in generation n.
  H.collect(3);
  EXPECT_EQ(H.generationOf(P.get()), 3u);
  EXPECT_EQ(pairCar(P.get()).asFixnum(), 7);
  H.verifyHeap();
}

TEST(CollectorTest, MinorCollectionDoesNotTouchOldObjects) {
  Heap H(testConfig());
  Root Old(H, H.cons(Value::fixnum(1), Value::nil()));
  H.collect(2); // Promote to generation 3... via target min(3, 3).
  unsigned OldGen = H.generationOf(Old.get());
  EXPECT_GE(OldGen, 1u);
  Value Addr = Old.get();
  H.collectMinor();
  EXPECT_EQ(Old.get(), Addr) << "old object must not move in a minor GC";
  H.verifyHeap();
}

TEST(CollectorTest, OldToYoungPointerIsRemembered) {
  Heap H(testConfig());
  Root Old(H, H.cons(Value::nil(), Value::nil()));
  H.collect(0); // Old is now generation 1.
  ASSERT_EQ(H.generationOf(Old.get()), 1u);
  // Create a young object referenced ONLY from the old one.
  {
    Root Young(H, H.cons(Value::fixnum(99), Value::nil()));
    H.setCar(Old.get(), Young.get());
  }
  H.collectMinor();
  Value Young = pairCar(Old.get());
  ASSERT_TRUE(Young.isPair()) << "young object kept alive via barrier";
  EXPECT_EQ(pairCar(Young).asFixnum(), 99);
  EXPECT_EQ(H.generationOf(Young), 1u);
  H.verifyHeap();
}

TEST(CollectorTest, OldVectorToYoungPointerIsRemembered) {
  Heap H(testConfig());
  Root Old(H, H.makeVector(8, Value::nil()));
  H.collect(1);
  ASSERT_GE(H.generationOf(Old.get()), 1u);
  H.vectorSet(Old.get(), 5, H.cons(Value::fixnum(1), Value::fixnum(2)));
  H.collectMinor();
  Value Young = objectField(Old.get(), 5);
  ASSERT_TRUE(Young.isPair());
  EXPECT_EQ(pairCar(Young).asFixnum(), 1);
  H.verifyHeap();
}

TEST(CollectorTest, UnreachableCycleIsReclaimed) {
  Heap H(testConfig());
  {
    Root A(H, H.cons(Value::fixnum(1), Value::nil()));
    Root B(H, H.cons(Value::fixnum(2), A.get()));
    H.setCdr(A.get(), B.get());
  }
  size_t Before = H.liveBytes();
  H.collectMinor();
  EXPECT_LT(H.liveBytes(), Before);
  H.verifyHeap();
}

TEST(CollectorTest, LargeObjectSurvives) {
  Heap H(testConfig());
  Root V(H, H.makeVector(3000, Value::fixnum(11)));
  H.collectMinor();
  ASSERT_EQ(objectLength(V.get()), 3000u);
  for (size_t I = 0; I != 3000; ++I)
    ASSERT_EQ(objectField(V.get(), I).asFixnum(), 11);
  H.verifyHeap();
}

TEST(CollectorTest, CollectFullRepeatedly) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int I = 0; I != 1000; ++I)
    L = H.cons(Value::fixnum(I), L);
  for (int K = 0; K != 5; ++K) {
    H.collectFull();
    Value P = L.get();
    for (int I = 999; I >= 0; --I) {
      ASSERT_EQ(pairCar(P).asFixnum(), I);
      P = pairCdr(P);
    }
    H.verifyHeap();
  }
  EXPECT_EQ(H.generationOf(L.get()), H.oldestGeneration());
}

TEST(CollectorTest, RootVectorIsUpdated) {
  Heap H(testConfig());
  RootVector RV(H);
  for (int I = 0; I != 100; ++I)
    RV.push_back(H.cons(Value::fixnum(I), Value::nil()));
  H.collectMinor();
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(pairCar(RV[static_cast<size_t>(I)]).asFixnum(), I);
  H.verifyHeap();
}

TEST(CollectorTest, StatsReportGenerations) {
  Heap H(testConfig());
  H.collect(2);
  EXPECT_EQ(H.lastStats().CollectedGeneration, 2u);
  EXPECT_EQ(H.lastStats().TargetGeneration, 3u);
  H.collect(3);
  EXPECT_EQ(H.lastStats().TargetGeneration, 3u)
      << "oldest generation collects into itself";
  EXPECT_EQ(H.totals().Collections, 2u);
}

TEST(CollectorTest, SerialWidthReportsOneWorker) {
  // The copier is serial. The benchmark's pause log still reads the
  // width fields, so every collection must report the one-worker values.
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int I = 0; I != 1000; ++I)
    L = H.cons(Value::fixnum(I), L.get());
  for (bool Full : {false, true}) {
    if (Full)
      H.collectFull();
    else
      H.collectMinor();
    const GcStats &S = H.lastStats();
    EXPECT_GT(S.BytesCopied, 0u);
    EXPECT_EQ(S.GcWorkersUsed, 1u);
    EXPECT_EQ(S.StealHits, 0u);
    EXPECT_DOUBLE_EQ(S.workerImbalanceRatio(), 1.0);
  }
}

TEST(CollectorTest, SegmentsAreRecycled) {
  Heap H(testConfig());
  for (int Round = 0; Round != 20; ++Round) {
    for (int I = 0; I != 20000; ++I)
      H.cons(Value::fixnum(I), Value::nil());
    H.collectMinor();
  }
  // Dead data from each round must be freed: usage stays bounded.
  EXPECT_LT(H.segmentsInUse(), 2000u);
  H.verifyHeap();
}

TEST(CollectorTest, AutoCollectTriggersAtSafepoints) {
  HeapConfig C = testConfig();
  C.AutoCollect = true;
  C.Gen0CollectBytes = 64 * 1024;
  Heap H(C);
  Root Keep(H, Value::nil());
  for (int I = 0; I != 50000; ++I)
    Keep = H.cons(Value::fixnum(I), Keep.get());
  EXPECT_GT(H.collectionCount(), 0u) << "allocation must trigger GC";
  // The list must be fully intact despite collections moving it.
  Value P = Keep.get();
  for (int I = 49999; I >= 0; --I) {
    ASSERT_EQ(pairCar(P).asFixnum(), I);
    P = pairCdr(P);
  }
  H.verifyHeap();
}

TEST(CollectorTest, CollectRequestHandlerRunsAfterAutoGc) {
  HeapConfig C = testConfig();
  C.AutoCollect = true;
  C.Gen0CollectBytes = 32 * 1024;
  Heap H(C);
  int Calls = 0;
  H.setCollectRequestHandler([&Calls](Heap &) { ++Calls; });
  for (int I = 0; I != 20000; ++I)
    H.cons(Value::fixnum(I), Value::nil());
  EXPECT_GT(Calls, 0);
}

TEST(CollectorTest, WeakSymbolTableDropsDeadSymbols) {
  Heap H(testConfig());
  Root Kept(H, H.intern("kept-symbol"));
  H.makeUninternedSymbol("scratch");
  H.intern("dropped-symbol");
  H.collectFull();
  EXPECT_GT(H.lastStats().SymbolsDropped, 0u);
  // Re-interning produces a fresh symbol object; the kept one is stable.
  Root Kept2(H, H.intern("kept-symbol"));
  EXPECT_EQ(Kept.get(), Kept2.get());
  H.verifyHeap();
}

TEST(CollectorTest, StrongSymbolTableKeepsSymbols) {
  HeapConfig C = testConfig();
  C.WeakSymbolTable = false;
  Heap H(C);
  H.intern("never-dropped");
  H.collectFull();
  EXPECT_EQ(H.lastStats().SymbolsDropped, 0u);
  Root S(H, H.intern("never-dropped"));
  EXPECT_EQ(H.symbolName(S.get()), "never-dropped");
  H.verifyHeap();
}

} // namespace
