//===- tests/runtime/segment_transfer_test.cpp - Zero-copy transfer ------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime half of segment donation (DESIGN.md §14): every payload,
/// small or large, crosses shards by donation; the receiver sees the
/// sender's graph exactly (structure, sharing, cycles, weak-pair
/// behavior) and sender-side guardian resurrection order is
/// undisturbed; donated exports are covered by the transport guardian.
///
//===----------------------------------------------------------------------===//

#include "core/Guardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"
#include "object/Layout.h"
#include "runtime/Shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

using namespace gengc;
using namespace gengc::runtime;

namespace {

HeapConfig shardConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

/// Canonical cycle-aware printout: identical graphs in different heaps
/// print identically, and lost sharing or broken cycles change the
/// back-reference labels. The parity oracle between sender and
/// receiver.
void describeGraph(Heap &H, Value V, std::map<uintptr_t, int> &Seen,
                   int &Next, std::ostringstream &Out) {
  if (V.isFixnum()) {
    Out << V.asFixnum();
    return;
  }
  if (!V.isHeapPointer()) {
    Out << 'i' << V.bits(); // Immediates encode identically everywhere.
    return;
  }
  auto It = Seen.find(V.bits());
  if (It != Seen.end()) {
    Out << '#' << It->second;
    return;
  }
  const int Id = Next++;
  Seen.emplace(V.bits(), Id);
  Out << '#' << Id << '=';
  if (V.isPair()) {
    Out << (H.isWeakPair(V) ? "(w " : "(p ");
    describeGraph(H, pairCar(V), Seen, Next, Out);
    Out << ' ';
    describeGraph(H, pairCdr(V), Seen, Next, Out);
    Out << ')';
    return;
  }
  switch (objectKind(V)) {
  case ObjectKind::String:
    Out << "str:" << std::string(stringData(V), objectLength(V));
    return;
  case ObjectKind::Symbol:
    Out << "sym:" << H.symbolName(V);
    return;
  case ObjectKind::Flonum:
    Out << "flo:" << flonumValue(V);
    return;
  case ObjectKind::Bytevector: {
    Out << "bv:";
    const unsigned char *D =
        reinterpret_cast<const unsigned char *>(bytevectorData(V));
    for (size_t I = 0; I != objectLength(V); ++I)
      Out << static_cast<unsigned>(D[I]) << ',';
    return;
  }
  default: {
    const uintptr_t Hdr = *V.objectHeader();
    Out << "obj" << static_cast<unsigned>(headerKind(Hdr)) << '[';
    const size_t Fields = objectPointerFieldCount(Hdr);
    for (size_t I = 0; I != Fields; ++I) {
      describeGraph(H, objectField(V, I), Seen, Next, Out);
      Out << ' ';
    }
    Out << ']';
    return;
  }
  }
}

std::string graphSignature(Heap &H, Value V) {
  std::map<uintptr_t, int> Seen;
  int Next = 0;
  std::ostringstream Out;
  describeGraph(H, V, Seen, Next, Out);
  return Out.str();
}

/// Records the canonical signature of every message it receives.
struct SignatureLocal : ShardLocal {
  std::mutex *M;
  std::vector<std::string> *Sigs;
  SignatureLocal(std::mutex *M, std::vector<std::string> *Sigs)
      : M(M), Sigs(Sigs) {}
  void onMessage(Shard &S, Value V) override {
    std::string Sig = graphSignature(S.heap(), V);
    std::lock_guard<std::mutex> Lock(*M);
    Sigs->push_back(std::move(Sig));
  }
};

/// A record/vector/string/cycle/weak-pair specimen covering every
/// transferable kind.
Value buildRichPayload(Heap &H) {
  Root Str(H, H.makeString("shared-chunk"));
  Root Vec(H, H.makeVector(4, Value::fixnum(0)));
  H.vectorSet(Vec.get(), 0, Str.get());
  H.vectorSet(Vec.get(), 1, Str.get()); // Sharing: same string twice.
  H.vectorSet(Vec.get(), 2, H.makeFlonum(6.25));
  Root BV(H, H.makeBytevector(5));
  std::memcpy(bytevectorData(BV.get()), "\x10\x20\x30\x40\x50", 5);
  H.vectorSet(Vec.get(), 3, BV.get());
  Root A(H, H.cons(Value::fixnum(1), Value::nil()));
  Root B(H, H.cons(Value::fixnum(2), A.get()));
  H.setCdr(A.get(), B.get()); // Cycle: A -> B -> A.
  Root W(H, H.weakCons(A.get(), B.get()));
  Root Rec(H, H.makeRecord(H.intern("parity-tag"), 4, Value::nil()));
  H.recordSet(Rec.get(), 1, Vec.get());
  H.recordSet(Rec.get(), 2, W.get());
  H.recordSet(Rec.get(), 3, A.get());
  return Rec.get();
}

TEST(SegmentTransferTest, EveryPayloadTravelsByDonation) {
  std::mutex M;
  std::vector<std::string> Sigs;
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 2;
  Cfg.HeapCfg = shardConfig();
  ShardRuntime RT(Cfg, [&](Shard &) {
    return std::make_unique<SignatureLocal>(&M, &Sigs);
  });

  std::string BigSig, SmallSig;
  RT.shard(0).run([&](Shard &S) {
    Heap &H = S.heap();
    Root Big(H, Value::nil());
    for (int I = 999; I >= 0; --I)
      Big = H.cons(Value::fixnum(I), Big.get());
    BigSig = graphSignature(H, Big.get());
    ASSERT_TRUE(S.sendValue(RT.shard(1), Big.get()));
    Root Small(H, H.cons(Value::fixnum(7), Value::nil()));
    SmallSig = graphSignature(H, Small.get());
    ASSERT_TRUE(S.sendValue(RT.shard(1), Small.get()));
  });
  RT.shutdown();

  const auto &Reports = RT.reports();
  ASSERT_EQ(Reports.size(), 2u);
  // 1000 pairs = 16000 bytes over four segments; 1 pair = one segment.
  EXPECT_EQ(Reports[0].TransferDonatedSegments, 5u);
  EXPECT_EQ(Reports[0].TransferBytesZeroCopy, 16016u);
  EXPECT_EQ(Reports[1].MessagesAdopted, 2u);
  EXPECT_EQ(Reports[1].MessagesReceived, 2u);
  EXPECT_EQ(Reports[1].MessagesDecodedNodes, 0u)
      << "no message is decoded node by node";
  EXPECT_EQ(Reports[0].ExportsWatched, 2u)
      << "donated sends are watched for shard exit like any export";

  ASSERT_EQ(Sigs.size(), 2u);
  EXPECT_EQ(Sigs[0], BigSig);
  EXPECT_EQ(Sigs[1], SmallSig);
}

TEST(SegmentTransferTest, ReceiverSemanticsMatchSender) {
  std::mutex M;
  std::vector<std::string> Sigs;
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 2;
  Cfg.HeapCfg = shardConfig();
  ShardRuntime RT(Cfg, [&](Shard &) {
    return std::make_unique<SignatureLocal>(&M, &Sigs);
  });
  std::string SenderSig;
  RT.shard(0).run([&](Shard &S) {
    Heap &H = S.heap();
    Root P(H, buildRichPayload(H));
    SenderSig = graphSignature(H, P.get());
    ASSERT_TRUE(S.sendValue(RT.shard(1), P.get()));
    // Drop the export and collect: the watched value dies in the
    // sender, and the transport guardian drops a dead export silently.
    P = Value::nil();
    H.collectFull();
  });
  RT.shutdown();
  const Shard::Report &Sender = RT.reports()[0];
  const Shard::Report &Receiver = RT.reports()[1];

  EXPECT_GT(Sender.TransferDonatedSegments, 0u);
  EXPECT_EQ(Receiver.MessagesAdopted, 1u);
  ASSERT_EQ(Sigs.size(), 1u);
  EXPECT_EQ(Sigs[0], SenderSig)
      << "donation preserves structure, sharing, and cycles";
  EXPECT_EQ(Sender.ExportsWatched, 1u);
  EXPECT_EQ(Sender.ExportsMoved, 0u);
}

/// Severs the only strong path to the weak car, collects, and counts
/// whether the weak pair broke. Message shape: (W . B) with W weak-
/// holding A, and B -> A the only strong edge.
struct WeakBreakLocal : ShardLocal {
  std::atomic<unsigned> *Broken;
  std::atomic<unsigned> *Survived;
  WeakBreakLocal(std::atomic<unsigned> *Broken,
                 std::atomic<unsigned> *Survived)
      : Broken(Broken), Survived(Survived) {}
  void onMessage(Shard &S, Value V) override {
    Heap &H = S.heap();
    Root Top(H, V);
    H.setCdr(pairCdr(Top.get()), Value::nil()); // Sever B -> A.
    // The adopted graph is generation 0: a minor collection evacuates
    // it into the private heap, and weak processing breaks the car.
    H.collectMinor();
    if (pairCar(pairCar(Top.get())).isFalse())
      ++*Broken;
    else
      ++*Survived;
  }
};

TEST(SegmentTransferTest, WeakPairsBreakIdenticallyAcrossDonation) {
  std::atomic<unsigned> Broken{0}, Survived{0};
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 2;
  Cfg.HeapCfg = shardConfig();
  ShardRuntime RT(Cfg, [&](Shard &) {
    return std::make_unique<WeakBreakLocal>(&Broken, &Survived);
  });
  RT.shard(0).run([&](Shard &S) {
    Heap &H = S.heap();
    Root A(H, H.cons(Value::fixnum(1), Value::nil()));
    Root B(H, H.cons(Value::fixnum(2), A.get()));
    Root W(H, H.weakCons(A.get(), Value::nil()));
    Root Top(H, H.cons(W.get(), B.get()));
    ASSERT_TRUE(S.sendValue(RT.shard(1), Top.get()));
  });
  RT.shutdown();
  EXPECT_EQ(RT.reports()[1].MessagesAdopted, 1u);
  EXPECT_EQ(Broken.load(), 1u)
      << "weak pairs stay weak across donation: the car breaks when A "
         "dies";
  EXPECT_EQ(Survived.load(), 0u);
}

TEST(SegmentTransferTest, GuardianResurrectionOrderSurvivesDonation) {
  // Sender-side guardians protect each export; after the sends the
  // exports die, and the guardian must resurrect them in registration
  // order, exactly as when nothing is sent.
  std::vector<intptr_t> Order;
  ShardRuntime::Config Cfg;
  Cfg.ShardCount = 2;
  Cfg.HeapCfg = shardConfig();
  ShardRuntime RT(Cfg, nullptr);
  RT.shard(0).run([&](Shard &S) {
    Heap &H = S.heap();
    Guardian G(H);
    for (int I = 0; I != 3; ++I) {
      Root R(H, H.makeRecord(H.intern("order-tag"), 2,
                             Value::fixnum((I + 1) * 10)));
      G.protect(R.get());
      ASSERT_TRUE(S.sendValue(RT.shard(1), R.get()));
      // Root drops here: the guardian is the only finder.
    }
    H.collectFull();
    for (Value V = G.retrieve(); !V.isFalse(); V = G.retrieve())
      Order.push_back(objectField(V, 1).asFixnum());
  });
  RT.shutdown();
  EXPECT_EQ(RT.reports()[1].MessagesAdopted, 3u);
  EXPECT_EQ(Order, (std::vector<intptr_t>{10, 20, 30}))
      << "donation must not perturb guardian resurrection order";
}

} // namespace
