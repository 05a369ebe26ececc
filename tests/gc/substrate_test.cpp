//===- tests/gc/substrate_test.cpp - Arena, contexts, support ------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "heap/Arena.h"
#include "heap/SpaceContext.h"
#include "support/MathExtras.h"
#include "support/PtrHashSet.h"
#include "support/XorShift.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <set>
#include <thread>
#include <utility>
#include <vector>

using namespace gengc;

namespace {

//===----------------------------------------------------------------------===//
// MathExtras.
//===----------------------------------------------------------------------===//

TEST(MathExtrasTest, Basics) {
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(4096));
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_FALSE(isPowerOf2(12));
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(4097, 4096), 8192u);
  EXPECT_TRUE(isAligned(4096, 4096));
  EXPECT_FALSE(isAligned(4097, 4096));
  EXPECT_EQ(divideCeil(10, 3), 4u);
  EXPECT_EQ(divideCeil(9, 3), 3u);
  EXPECT_EQ(divideCeil(0, 3), 0u);
  EXPECT_EQ(nextPowerOf2(0), 1u);
  EXPECT_EQ(nextPowerOf2(5), 8u);
  EXPECT_EQ(nextPowerOf2(8), 8u);
}

TEST(MathExtrasTest, PointerHashSpreads) {
  // Adjacent inputs should produce well-spread hashes.
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I != 1000; ++I)
    Seen.insert(hashPointerBits(I * 8) & 0xFFFF);
  EXPECT_GT(Seen.size(), 900u) << "hash must spread aligned addresses";
}

//===----------------------------------------------------------------------===//
// XorShift.
//===----------------------------------------------------------------------===//

TEST(XorShiftTest, DeterministicAndSeedSensitive) {
  XorShift A(42), B(42), C(43);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  XorShift A2(42);
  for (int I = 0; I != 10; ++I)
    if (A2.next() != C.next())
      Differs = true;
  EXPECT_TRUE(Differs);
}

TEST(XorShiftTest, BoundsRespected) {
  XorShift R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

//===----------------------------------------------------------------------===//
// PtrHashSet.
//===----------------------------------------------------------------------===//

TEST(PtrHashSetTest, InsertContainsClear) {
  PtrHashSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.contains(8));
  EXPECT_TRUE(S.insert(8));
  EXPECT_FALSE(S.insert(8)) << "duplicate insert reports false";
  EXPECT_TRUE(S.contains(8));
  EXPECT_EQ(S.size(), 1u);
  S.clear();
  EXPECT_FALSE(S.contains(8));
  EXPECT_TRUE(S.empty());
}

TEST(PtrHashSetTest, GrowsAndKeepsEverything) {
  PtrHashSet S;
  for (uintptr_t I = 1; I <= 10000; ++I)
    S.insert(I * 16 + 1);
  EXPECT_EQ(S.size(), 10000u);
  for (uintptr_t I = 1; I <= 10000; ++I)
    ASSERT_TRUE(S.contains(I * 16 + 1));
  EXPECT_FALSE(S.contains(3));
}

TEST(PtrHashSetTest, SnapshotRoundTrip) {
  PtrHashSet S;
  for (uintptr_t I = 1; I <= 100; ++I)
    S.insert(I * 8);
  std::vector<uintptr_t> Snap = S.takeSnapshot();
  EXPECT_EQ(Snap.size(), 100u);
  PtrHashSet T;
  T.assign(Snap);
  for (uintptr_t I = 1; I <= 100; ++I)
    EXPECT_TRUE(T.contains(I * 8));
}

//===----------------------------------------------------------------------===//
// Arena.
//===----------------------------------------------------------------------===//

TEST(ArenaTest, AllocateAndTag) {
  Arena A(16 * 1024 * 1024);
  uint32_t S = A.allocateRun(3, SpaceKind::Typed, 2);
  for (uint32_t I = S; I != S + 3; ++I) {
    EXPECT_TRUE(A.infoAt(I).inUse());
    EXPECT_EQ(A.infoAt(I).Space, SpaceKind::Typed);
    EXPECT_EQ(A.infoAt(I).Generation, 2);
  }
  EXPECT_EQ(A.segmentsInUse(), 3u);
  // rootcheck:allow(segment-base) — the substrate test addresses the
  // arena directly; that is the interface under test.
  uintptr_t Addr = reinterpret_cast<uintptr_t>(A.segmentBase(S)) + 100;
  EXPECT_TRUE(A.containsAddress(Addr));
  EXPECT_EQ(A.segmentIndexOf(Addr), S);
  EXPECT_EQ(&A.infoFor(Addr), &A.infoAt(S));
}

TEST(ArenaTest, FreeAndCoalesce) {
  Arena A(16 * 1024 * 1024);
  uint32_t R1 = A.allocateRun(4, SpaceKind::Pair, 0);
  uint32_t R2 = A.allocateRun(4, SpaceKind::Pair, 0);
  uint32_t R3 = A.allocateRun(4, SpaceKind::Pair, 0);
  EXPECT_EQ(A.segmentsInUse(), 12u);
  A.freeRun(R1, 4);
  A.freeRun(R3, 4);
  A.freeRun(R2, 4); // Middle free must merge all three.
  EXPECT_EQ(A.segmentsInUse(), 0u);
  // After coalescing, a run spanning all twelve segments must fit where
  // the three smaller ones were.
  uint32_t Big = A.allocateRun(12, SpaceKind::Data, 1);
  EXPECT_EQ(Big, R1);
}

TEST(ArenaTest, FirstFitReusesFreedSpace) {
  Arena A(4 * 1024 * 1024);
  uint32_t R1 = A.allocateRun(2, SpaceKind::Pair, 0);
  A.allocateRun(2, SpaceKind::Pair, 0);
  A.freeRun(R1, 2);
  uint32_t R3 = A.allocateRun(1, SpaceKind::Typed, 0);
  EXPECT_EQ(R3, R1) << "first fit should reuse the earliest hole";
}

TEST(ArenaTest, ConcurrentRunTrafficNeverSharesASegment) {
  // The process-wide exchange arena is allocated from and freed to by
  // every donating shard thread at once. Each thread claims the
  // segments it is handed in an owner table; a failed claim means the
  // arena handed one segment to two threads.
  Arena A(16 * 1024 * 1024);
  std::vector<std::atomic<unsigned>> Owner(A.totalSegments());
  std::atomic<unsigned> DoubleHandouts{0};
  constexpr unsigned Threads = 4;
  std::vector<std::thread> Workers;
  for (unsigned T = 1; T <= Threads; ++T)
    Workers.emplace_back([&, T] {
      XorShift R(T);
      std::deque<std::pair<uint32_t, uint32_t>> Held;
      auto Release = [&] {
        auto [First, Count] = Held.front();
        Held.pop_front();
        for (uint32_t S = First; S != First + Count; ++S)
          Owner[S].store(0);
        A.freeRun(First, Count);
      };
      for (int I = 0; I != 5000; ++I) {
        const uint32_t Count = 1 + static_cast<uint32_t>(R.nextBelow(4));
        const uint32_t First = A.allocateRun(Count, SpaceKind::Pair, 0);
        for (uint32_t S = First; S != First + Count; ++S) {
          unsigned Free = 0;
          if (!Owner[S].compare_exchange_strong(Free, T))
            ++DoubleHandouts;
        }
        Held.emplace_back(First, Count);
        if (Held.size() > 8)
          Release();
      }
      while (!Held.empty())
        Release();
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(DoubleHandouts.load(), 0u);
  EXPECT_EQ(A.segmentsInUse(), 0u);
}

//===----------------------------------------------------------------------===//
// SpaceContext.
//===----------------------------------------------------------------------===//

TEST(SpaceContextTest, BumpWithinRun) {
  Arena A(16 * 1024 * 1024);
  SpaceContext C;
  uintptr_t *P1 = C.allocate(A, SpaceKind::Pair, 0, 2);
  uintptr_t *P2 = C.allocate(A, SpaceKind::Pair, 0, 2);
  EXPECT_EQ(P2, P1 + 2) << "bump allocation is contiguous";
  EXPECT_EQ(C.runs().size(), 1u);
  EXPECT_EQ(C.usedWords(A), 4u);
  EXPECT_EQ(C.bytesAllocated(), 32u);
}

TEST(SpaceContextTest, NewRunWhenFull) {
  Arena A(16 * 1024 * 1024);
  SpaceContext C;
  // Fill exactly one segment (512 words) with 2-word objects.
  for (size_t I = 0; I != SegmentWords / 2; ++I)
    C.allocate(A, SpaceKind::Pair, 0, 2);
  EXPECT_EQ(C.runs().size(), 1u);
  C.allocate(A, SpaceKind::Pair, 0, 2);
  EXPECT_EQ(C.runs().size(), 2u);
  EXPECT_EQ(C.usedWords(A), SegmentWords + 2);
}

TEST(SpaceContextTest, LargeObjectGetsDedicatedRun) {
  Arena A(16 * 1024 * 1024);
  SpaceContext C;
  C.allocate(A, SpaceKind::Typed, 0, 2);
  uintptr_t *Big = C.allocate(A, SpaceKind::Typed, 0, SegmentWords * 3);
  EXPECT_EQ(C.runs().size(), 2u);
  EXPECT_EQ(C.runs()[1].SegmentCount, 3u);
  // rootcheck:allow(segment-base) — asserts the bump pointer's raw
  // placement, which only segmentBase can express.
  EXPECT_EQ(Big, A.segmentBase(C.runs()[1].FirstSegment));
  // Subsequent small allocations start a fresh run (allocation order
  // across runs stays monotonic for the Cheney sweep).
  C.allocate(A, SpaceKind::Typed, 0, 2);
  EXPECT_EQ(C.runs().size(), 3u);
}

TEST(SpaceContextTest, TakeRunsResets) {
  Arena A(16 * 1024 * 1024);
  SpaceContext C;
  C.allocate(A, SpaceKind::Pair, 1, 2);
  C.allocate(A, SpaceKind::Pair, 1, 2);
  std::vector<SegmentRun> Runs = C.takeRuns(A);
  ASSERT_EQ(Runs.size(), 1u);
  EXPECT_EQ(Runs[0].UsedWords, 4u) << "current run sealed on detach";
  EXPECT_TRUE(C.empty());
  EXPECT_EQ(C.usedWords(A), 0u);
  A.freeRun(Runs[0].FirstSegment, Runs[0].SegmentCount);
}

} // namespace
