//===- perfbench/bench/BulkTransfer.cpp - Closed-loop bulk messages -----===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `bulk-transfer`: each of 2 shards builds message graphs of seeded
/// sizes from 4 KiB to 256 KiB (fixnum lists, vectors of strings, lists
/// of interned symbols so the receiver's symbol fixups run) and sends
/// them to the other shard, closed loop. On a full inbox the sender
/// pumps its own inbox and retries. The receiver verifies each message's
/// checksum, keeps a sliding window of recent messages live so they
/// tenure, and guardian-protects each message header; a header dropped
/// from the window is cleaned up by an executor action.
///
/// Why: the transfer path, mailbox backpressure and receiver-side
/// footprint are on the critical path; guardian churn is light.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Guardian.h"
#include "gc/Roots.h"
#include "object/Layout.h"
#include "runtime/Shard.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>

using namespace gengc;
using namespace gengc::runtime;

namespace perfbench {
namespace {

constexpr size_t Shards = 2;
constexpr size_t WindowMessages = 32;
constexpr size_t MinBytes = 4096, MaxBytes = 256 * 1024;
constexpr unsigned SymbolNames = 64;

/// Header record fields: tag, id, send stamp, checksum, payload.
enum : size_t { FId = 1, FStamp, FSum, FPayload, HeaderFields };

uint64_t mix(uint64_t Sum, uint64_t V) {
  return (Sum * 1099511628211ull + V + 1) & ((1ull << 56) - 1);
}

uint64_t stringHash(const char *P, size_t N) {
  uint64_t H = 14695981039346656037ull;
  for (size_t I = 0; I != N; ++I)
    H = (H ^ static_cast<unsigned char>(P[I])) * 1099511628211ull;
  return H;
}

std::string symbolName(unsigned K) { return "bulk-sym-" + std::to_string(K); }

/// The receiver's recomputation of a payload checksum, by walking the
/// graph it was handed.
uint64_t walkChecksum(Heap &H, Value P) {
  uint64_t Sum = 0;
  if (isVector(P)) {
    for (size_t I = 0; I != objectLength(P); ++I) {
      Value S = objectField(P, I);
      Sum = mix(Sum, stringHash(stringData(S), objectLength(S)));
    }
    return Sum;
  }
  for (; P.isPair(); P = pairCdr(P)) {
    Value V = pairCar(P);
    if (V.isFixnum()) {
      Sum = mix(Sum, static_cast<uint64_t>(V.asFixnum()));
    } else {
      const std::string Name = H.symbolName(V);
      Sum = mix(Sum, stringHash(Name.data(), Name.size()));
    }
  }
  return Sum;
}

struct ShardEnv {
  FinalizationExecutor::QueueId HeaderQueue = 0;
  PauseLog Pauses;
  std::atomic<uint64_t> Received{0};
  std::atomic<bool> SenderDone{false};
  // Shard thread.
  uint64_t Sent = 0, SendAttempts = 0, SendRefused = 0;
  uint64_t BadMessages = 0, PayloadBytes = 0, Delivered = 0;
  std::vector<double> DeliveryUs;
  std::vector<uint64_t> ReceivedIds;
  HeapWindow Heap;
  size_t AdoptedMid = 0;
  // Executor thread.
  std::unordered_map<uint64_t, uint32_t> Cleaned;
  std::vector<std::pair<int64_t, double>> CleanupLags;
};

struct World : ShardLocal {
  Shard &Self;
  ShardEnv &Env;
  const RunOptions &Opt;
  Heap &H;
  Guardian HeaderG;
  RootVector Window;
  Root Tag;
  size_t WindowNext = 0;
  std::unordered_map<uint64_t, int64_t> DropStamp;
  Rng R; ///< Message sizes and contents.

  World(Shard &S, ShardEnv &Env, const RunOptions &Opt)
      : Self(S), Env(Env), Opt(Opt), H(S.heap()), HeaderG(H), Window(H),
        Tag(H, H.intern("bulk-msg")), R(Opt.Seed * 7919 + S.id()) {
    Env.Pauses.attach(H);
  }

  void snapshot(bool Start) {
    (Start ? Env.Heap.Start : Env.Heap.End) = snapshotHeap(H);
  }

  void drainHeaders() {
    Span S(SpanKind::GuardianDrain);
    Env.Delivered += HeaderG.drain([&](Value Header) {
      const uint64_t Id = static_cast<uint64_t>(objectField(Header, FId).asFixnum());
      int64_t Stamp = -1;
      if (auto It = DropStamp.find(Id); It != DropStamp.end()) {
        Stamp = It->second;
        DropStamp.erase(It);
      }
      Span Sub(SpanKind::ExecutorSubmit);
      Self.submitTicket(Env.HeaderQueue, static_cast<intptr_t>(Id), Stamp);
    });
  }

  void onMessage(Shard &, Value V) override {
    const int64_t Now = nowNs();
    Root Msg(H, V);
    const uint64_t Id = static_cast<uint64_t>(objectField(Msg, FId).asFixnum());
    Env.DeliveryUs.push_back(
        static_cast<double>(Now - objectField(Msg, FStamp).asFixnum()) / 1000.0);
    uint64_t Want = static_cast<uint64_t>(objectField(Msg, FSum).asFixnum());
    if (Opt.Canary)
      ++Want;
    if (walkChecksum(H, objectField(Msg, FPayload)) != Want)
      ++Env.BadMessages;
    Env.ReceivedIds.push_back(Id);
    {
      Span S(SpanKind::GuardianProtect);
      HeaderG.protect(Msg);
    }
    // Slide the window: the evicted message's header is dropped now.
    if (Window.size() < WindowMessages) {
      Window.push_back(Msg);
    } else {
      const Value Old = Window[WindowNext];
      DropStamp[static_cast<uint64_t>(objectField(Old, FId).asFixnum())] =
          nowNs();
      Window[WindowNext] = Msg;
      WindowNext = (WindowNext + 1) % WindowMessages;
    }
    Env.Received.fetch_add(1, std::memory_order_release);
  }

  void pump() {
    const uint64_t Before = Env.Received.load(std::memory_order_relaxed);
    {
      Span S(SpanKind::Recv);
      Self.pumpInbox();
      S.perItem(Env.Received.load(std::memory_order_relaxed) - Before);
    }
    drainHeaders();
  }

  /// Builds one message graph of about Bytes bytes; returns the header.
  Value build(uint64_t Id, size_t Bytes, uint64_t &PayloadBytes) {
    Root Payload(H, Value::nil());
    uint64_t Sum = 0;
    const uint64_t Kind = R.below(3);
    if (Kind == 1) { // Vector of strings.
      std::vector<std::string> Strs;
      size_t Used = 0;
      while (Used < Bytes) {
        const size_t Len = 8 + R.below(57);
        std::string S(Len, 'a');
        for (char &C : S)
          C = static_cast<char>('a' + R.below(26));
        Used += 16 + ((Len + 7) & ~size_t(7));
        Strs.push_back(std::move(S));
      }
      Payload = traceAlloc(
          H, [&] { return H.makeVector(Strs.size(), Value::falseV()); });
      for (size_t I = 0; I != Strs.size(); ++I) {
        Root S(H, traceAlloc(H, [&] { return H.makeString(Strs[I]); }));
        Span St(SpanKind::GcStore);
        H.vectorSet(Payload, I, S);
      }
      for (const std::string &S : Strs)
        Sum = mix(Sum, stringHash(S.data(), S.size()));
      PayloadBytes = Used;
    } else { // Fixnum list, or fixnums mixed with interned symbols.
      const size_t Cells = Bytes / 16;
      std::vector<int64_t> Items(Cells); // >= 0 fixnum, < 0 symbol index.
      for (int64_t &It : Items)
        It = Kind == 2 && R.below(4) == 0
                 ? -1 - static_cast<int64_t>(R.below(SymbolNames))
                 : static_cast<int64_t>(R.below(1u << 30));
      for (size_t I = Cells; I-- > 0;) {
        Value Car = Items[I] >= 0 ? Value::fixnum(Items[I])
                                  : H.intern(symbolName(static_cast<unsigned>(
                                        -1 - Items[I])));
        Payload = traceAlloc(H, [&] { return H.cons(Car, Payload.get()); });
      }
      for (int64_t It : Items) {
        if (It >= 0) {
          Sum = mix(Sum, static_cast<uint64_t>(It));
        } else {
          const std::string Name = symbolName(static_cast<unsigned>(-1 - It));
          Sum = mix(Sum, stringHash(Name.data(), Name.size()));
        }
      }
      PayloadBytes = Cells * 16;
    }
    Root Header(H, traceAlloc(H, [&] {
                  return H.makeRecord(Tag, HeaderFields, Value::fixnum(0));
                }));
    Span St(SpanKind::GcStore);
    St.perItem(3);
    H.recordSet(Header, FId, Value::fixnum(static_cast<intptr_t>(Id)));
    H.recordSet(Header, FSum, Value::fixnum(static_cast<intptr_t>(Sum)));
    H.recordSet(Header, FPayload, Payload);
    return Header;
  }

  /// Builds one message of Bytes and sends it, retrying while the
  /// peer's inbox is full.
  void sendOne(size_t Bytes) {
    const uint64_t Id = (static_cast<uint64_t>(Self.id()) << 40) | Env.Sent;
    setRequest(Id);
    uint64_t PayloadBytes = 0;
    Root Msg(H, build(Id, Bytes, PayloadBytes));
    while (true) {
      ++Env.SendAttempts;
      H.recordSet(Msg, FStamp, Value::fixnum(nowNs()));
      bool Ok;
      {
        Span S(SpanKind::SendBulk);
        Ok = Self.sendValue(Self.peer(1 - Self.id()), Msg);
      }
      if (Ok)
        break;
      ++Env.SendRefused;
      pump();
    }
    ++Env.Sent;
    Env.PayloadBytes += PayloadBytes;
    setRequest(0);
  }

  /// The closed sender loop, run as one task on the shard thread.
  void sendUntil(int64_t MidNs, int64_t EndNs) {
    bool MidTaken = false;
    while (nowNs() < EndNs) {
      sendOne(static_cast<size_t>(
          static_cast<double>(MinBytes) *
          std::pow(static_cast<double>(MaxBytes) / MinBytes, R.unit())));
      pump();
      if (!MidTaken && nowNs() >= MidNs) {
        Env.AdoptedMid = H.adoptedSegments();
        MidTaken = true;
      }
    }
    Env.SenderDone.store(true, std::memory_order_release);
  }

  void onShutdown(Shard &) override {
    const int64_t Now = nowNs();
    for (size_t I = 0; I != Window.size(); ++I)
      DropStamp[static_cast<uint64_t>(objectField(Window[I], FId).asFixnum())] =
          Now;
    Window.clear();
    H.collectFull();
    H.collectFull();
    drainHeaders();
  }
};

struct Fleet {
  std::vector<std::unique_ptr<ShardEnv>> Envs;
  std::unique_ptr<ShardRuntime> RT;

  explicit Fleet(const RunOptions &O) {
    for (size_t I = 0; I != Shards; ++I)
      Envs.push_back(std::make_unique<ShardEnv>());
    ShardRuntime::Config Cfg; // Shipped defaults throughout.
    Cfg.ShardCount = Shards;
    RT = std::make_unique<ShardRuntime>(Cfg, [this, &O](Shard &S) {
      return std::make_unique<World>(S, *Envs[S.id()], O);
    });
    for (size_t I = 0; I != Shards; ++I) {
      ShardEnv &Env = *Envs[I];
      Env.HeaderQueue = RT->executor().registerQueue(
          "bulk-headers/" + std::to_string(I),
          [&Env](const FinalizationTicket &T) {
            ++Env.Cleaned[static_cast<uint64_t>(T.Payload)];
            const int64_t Now = nowNs();
            if (T.Aux >= 0)
              Env.CleanupLags.push_back(
                  {Now, static_cast<double>(Now - T.Aux) / 1e6});
            return true;
          });
    }
    // Setup ends when each shard has built (and dropped) one 64 KiB
    // message graph, which faults in its first heap segments.
    for (size_t I = 0; I != Shards; ++I)
      RT->shard(I).run([this](Shard &S) {
        uint64_t Bytes = 0;
        Root Warm(S.heap(), world(S).build(0, 64 * 1024, Bytes));
      });
  }

  World &world(Shard &S) { return *static_cast<World *>(S.local()); }
  void snapshotAll(bool Start) {
    for (size_t I = 0; I != Shards; ++I)
      RT->shard(I).run([this, Start](Shard &S) { world(S).snapshot(Start); });
  }
};

} // namespace

Report runBulkTransfer(const RunOptions &O) {
  Report R;
  R.ConfigSet.push_back({"ShardRuntime::Config::ShardCount", "2"});

  std::vector<double> SetupS;
  std::unique_ptr<Fleet> F;
  const int Reps = O.Smoke ? 2 : 21;
  for (int I = 0; I != Reps; ++I) {
    F.reset();
    const double Cpu0 = processCpuSeconds();
    F = std::make_unique<Fleet>(O);
    SetupS.push_back(processCpuSeconds() - Cpu0);
  }
  EndToEnd E;
  E.SetupS = setupMedian(R, SetupS);
  E.SetupSamples = SetupS.size();

  F->snapshotAll(true);
  const double Cpu0 = processCpuSeconds();
  const int64_t Start = nowNs();
  const int64_t End = Start + static_cast<int64_t>(O.Seconds * 1e9);
  const int64_t Mid = Start + (End - Start) / 2;
  for (size_t I = 0; I != Shards; ++I)
    F->RT->shard(I).post(
        [F = F.get(), Mid, End](Shard &S) { F->world(S).sendUntil(Mid, End); });
  // Wait for both senders, then for every message in flight.
  auto Settled = [&] {
    uint64_t Sent = 0, Received = 0;
    for (auto &Env : F->Envs) {
      if (!Env->SenderDone.load(std::memory_order_acquire))
        return false;
      Sent += Env->Sent; // Final once SenderDone is set.
      Received += Env->Received.load(std::memory_order_acquire);
    }
    return Sent == Received;
  };
  while (!Settled())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const int64_t Settle = nowNs();
  E.CpuSeconds = processCpuSeconds() - Cpu0;
  F->snapshotAll(false);
  const FinalizationExecutor::Stats ES = F->RT->executor().stats();
  std::vector<Mailbox::Stats> MB;
  for (size_t I = 0; I != Shards; ++I)
    MB.push_back(F->RT->shard(I).inbox().stats());
  F->RT->shutdown();

  uint64_t Received = 0, Verified = 0, Attempts = 0, Refused = 0, Bad = 0;
  std::vector<double> LatUs;
  for (auto &Env : F->Envs) {
    for (double Us : Env->DeliveryUs) {
      E.LatencyMs.push_back(Us / 1000.0);
      LatUs.push_back(Us);
    }
    Received += Env->ReceivedIds.size();
    Verified += Env->PayloadBytes;
    Attempts += Env->SendAttempts;
    Refused += Env->SendRefused;
    Bad += Env->BadMessages;
    for (auto &[When, Ms] : Env->CleanupLags)
      if (When <= Settle)
        E.CleanupLagMs.push_back(Ms);
  }
  const double Secs = static_cast<double>(Settle - Start) / 1e9;
  E.ThroughputPerS = static_cast<double>(LatUs.size()) / Secs;
  E.Ops = LatUs.size();
  R.Attempted = Received;
  R.Failed = Bad;
  reportEndToEnd(R, E);
  std::vector<const PauseLog *> Logs;
  for (auto &Env : F->Envs)
    Logs.push_back(&Env->Pauses);
  reportPauses(R, Logs, Start, Settle, false);
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "transfer_mb_s %.3f MB/s of verified payload; delivery_p99_us "
                "%.1f us over %llu messages (%llu refused send attempts)",
                static_cast<double>(Verified) / 1e6 / Secs,
                percentile(LatUs, 0.99),
                static_cast<unsigned long long>(Received),
                static_cast<unsigned long long>(Refused));
  R.Notes.push_back(Buf);

  // Correctness: every checksum, and every header cleaned exactly once.
  R.check(Bad == 0, std::to_string(Bad) + " messages failed their checksum",
          /*CountsOp=*/false);
  for (size_t I = 0; I != Shards; ++I) {
    ShardEnv &Env = *F->Envs[I];
    uint64_t Missing = 0, Twice = 0;
    for (uint64_t Id : Env.ReceivedIds) {
      auto It = Env.Cleaned.find(Id);
      if (It == Env.Cleaned.end())
        ++Missing;
      else if (It->second != 1)
        ++Twice;
    }
    const std::string Tag = "bulk-transfer shard " + std::to_string(I) + ": ";
    R.check(Missing == 0, Tag + std::to_string(Missing) +
                              " message headers never cleaned up");
    R.check(Twice == 0,
            Tag + std::to_string(Twice) + " message headers cleaned twice");
    R.check(Env.Cleaned.size() == Env.ReceivedIds.size(),
            Tag + std::to_string(Env.Cleaned.size()) +
                " headers cleaned for " +
                std::to_string(Env.ReceivedIds.size()) + " received");
  }

  if (!O.Traced)
    return R;

  const TraceSummary T = summarizeTrace();
  std::vector<HeapWindow> Heaps;
  uint64_t Delivered = 0;
  size_t AdoptedMid = 0, AdoptedEnd = 0;
  for (auto &Env : F->Envs) {
    Heaps.push_back(Env->Heap);
    Delivered += Env->Delivered;
    AdoptedMid += Env->AdoptedMid;
    AdoptedEnd += Env->Heap.End.AdoptedSegments;
  }
  reportHeapLayers(R, T, Heaps, Logs, Start, Settle, Delivered);
  reportSpan(R, T, SpanKind::SendBulk, "runtime.send.us.bulk", 0.5, 1000, "us");
  R.set("runtime.send.refused_frac",
        Attempts ? static_cast<double>(Refused) / Attempts : 0.0, "fraction",
        Attempts);
  reportRuntime(R, T, *F->RT, ES, MB);
  if (AdoptedEnd > AdoptedMid)
    R.Anomalies.push_back("heap.adopted_segments grew from " +
                          std::to_string(AdoptedMid) + " at mid-run to " +
                          std::to_string(AdoptedEnd) + " at the end");
  return R;
}

} // namespace perfbench
