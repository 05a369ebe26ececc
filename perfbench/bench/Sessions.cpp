//===- perfbench/bench/Sessions.cpp - Open-loop session workload --------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `sessions`: one generator thread posts client sessions to a 2-shard
/// runtime at seeded Poisson arrival times, over a few fixed rate steps.
/// A session is 300 operations of the loadgen mix: guarded ports,
/// external blocks, pool bitmaps, guarded-table churn, a junk list per
/// op and small record messages to the peer shard. A seeded half of the
/// sessions run inside a ScopedExtent. Each session is timed from the
/// moment it was due, so a stalled shard charges its wait to every
/// session queued behind it.
///
/// Why: the allocation fast path, frequent minor collections at the
/// default GC width, the guardian -> ticket -> executor pipeline, scope
/// close and small transfers all sit on the client's critical path,
/// with almost no full collections.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/GuardedHashTable.h"
#include "core/Guardian.h"
#include "gc/Roots.h"
#include "gc/ScopedGeneration.h"
#include "io/GuardedPorts.h"
#include "io/PortTable.h"
#include "object/Layout.h"
#include "resource/ExternalMemory.h"
#include "resource/ResourcePool.h"
#include "runtime/Shard.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

using namespace gengc;
using namespace gengc::runtime;

namespace perfbench {
namespace {

constexpr size_t Shards = 2;
constexpr size_t OpsPerSession = 300;
/// Arrival-rate steps in sessions/s. The nominal step carries the
/// latency metrics; max rate is the highest step whose session p99
/// meets LimitMs without a growing backlog. The last step offers more
/// than two shards can serve, so its completion rate is their capacity.
constexpr double Rates[] = {300, 600, 1200, 2400};
/// Share of the run each step gets: the nominal step's p99 needs the
/// most sessions.
constexpr double StepShare[] = {0.40, 0.20, 0.20, 0.20};
constexpr size_t NumSteps = sizeof(Rates) / sizeof(Rates[0]);
/// The nominal step runs the shards at about a fifth of their capacity,
/// so its latency is the sessions' own critical path rather than queueing
/// that a busy host would amplify from run to run.
constexpr size_t NominalStep = 0;
constexpr double LimitMs = 50.0;
/// Pool bitmaps outstanding before acquire refuses. Dropped bitmaps
/// that were tenured wait for their generation's collection, so at the
/// overload step tens of thousands are outstanding; a refusal below this
/// bound means the guardian reclaim pipeline broke, and counts as failed.
constexpr size_t PoolMaxOutstanding = 1 << 17;

/// A completed session, recorded on its shard thread.
struct SessionDone {
  uint32_t Step;
  int64_t Due, Done;
};

/// Counters and samples a shard exports; each field is written by one
/// thread only (shard or executor) and read after the runtime joined.
struct ShardEnv {
  MemoryFileSystem FS;
  PortTable Ports{FS};
  ExternalMemoryManager ExtMgr;
  FinalizationExecutor::QueueId PortQueue = 0, ExtQueue = 0;
  PauseLog Pauses;
  std::atomic<uint64_t> DoneByStep[NumSteps] = {};
  // Shard thread.
  std::vector<SessionDone> Sessions;
  struct Delivery {
    int64_t When;
    double Us;
    uint64_t Bytes;
  };
  std::vector<Delivery> Deliveries;
  std::vector<std::pair<int64_t, double>> ScopeCloses; ///< (when, us)
  ScopeTotals Scopes;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t PoolAttempts = 0, PoolExhausted = 0, ExtRefused = 0;
  uint64_t SendAttempts = 0, SendRefused = 0, BadMessages = 0;
  uint64_t MessagesChecked = 0;
  uint64_t Delivered = 0; ///< Guardian-delivered objects drained.
  uint64_t PoolOutstandingAtExit = 0, PoolUnaccounted = 0;
  uint64_t TableRemovedStart = 0, TableRemovedEnd = 0;
  HeapWindow Heap;
  // Executor thread: (action time, drop-to-clean lag).
  std::vector<std::pair<int64_t, double>> CleanupLags;
};

uint64_t checksumOf(const std::vector<intptr_t> &Payload) {
  uint64_t Sum = 0;
  for (intptr_t V : Payload)
    Sum = (Sum * 31 + static_cast<uint64_t>(V)) & ((1ull << 48) - 1);
  return Sum;
}

struct World : ShardLocal {
  Shard &Self;
  ShardEnv &Env;
  const RunOptions &Opt;
  Heap &H;
  Guardian PortG, ExtG;
  ResourcePool Pool;
  GuardedHashTable Table;
  RootVector Held;
  Root ExtTag, MsgTag;
  std::unordered_map<intptr_t, int64_t> PortDrop, ExtDrop;
  uint64_t MsgSeq = 0;

  World(Shard &S, ShardEnv &Env, const RunOptions &Opt)
      : Self(S), Env(Env), Opt(Opt), H(S.heap()), PortG(H), ExtG(H),
        Pool(H, /*BitmapBytes=*/256, /*InitSweeps=*/4, PoolMaxOutstanding),
        Table(H, /*BucketCount=*/128), Held(H), ExtTag(H, H.intern("external-block")),
        MsgTag(H, H.intern("session-msg")) {
    Env.Pauses.attach(H);
    H.setScopeCloseHook([this](Heap &, const ScopeCloseStats &St) {
      this->Env.Scopes.accumulate(St);
      this->Env.ScopeCloses.push_back(
          {nowNs(), static_cast<double>(St.DurationNanos) / 1000.0});
    });
  }

  void snapshot(bool Start) {
    (Start ? Env.Heap.Start : Env.Heap.End) = snapshotHeap(H);
    (Start ? Env.TableRemovedStart : Env.TableRemovedEnd) = Table.removedTotal();
  }

  /// Stamps the moment the workload lets go of a guarded handle.
  void dropped(Value V, int64_t When) {
    if (isPortHandle(V))
      PortDrop[GuardedPortSystem::portIdOf(V)] = When;
    else if (isRecord(V))
      ExtDrop[GuardedExternalMemory::blockIdOf(V)] = When;
  }

  void truncateHeld(size_t Keep) {
    const int64_t Now = nowNs();
    for (size_t I = Keep; I != Held.size(); ++I)
      dropped(Held[I], Now);
    Held.truncate(Keep);
  }

  static int64_t takeStamp(std::unordered_map<intptr_t, int64_t> &M,
                           intptr_t Id) {
    auto It = M.find(Id);
    if (It == M.end())
      return -1;
    const int64_t T = It->second;
    M.erase(It);
    return T;
  }

  /// Converts guardian-delivered handles into executor tickets; the
  /// ticket's Aux carries the drop stamp for the cleanup-lag metric.
  void drainToExecutor() {
    Span S(SpanKind::GuardianDrain);
    Env.Delivered += PortG.drain([&](Value Handle) {
      const intptr_t Id = GuardedPortSystem::portIdOf(Handle);
      Span Sub(SpanKind::ExecutorSubmit);
      Self.submitTicket(Env.PortQueue, Id, takeStamp(PortDrop, Id));
    });
    Env.Delivered += ExtG.drain([&](Value Header) {
      const intptr_t Id = GuardedExternalMemory::blockIdOf(Header);
      Span Sub(SpanKind::ExecutorSubmit);
      Self.submitTicket(Env.ExtQueue, Id, takeStamp(ExtDrop, Id));
    });
  }

  void pump() {
    const uint64_t Before = Env.MessagesChecked;
    Span S(SpanKind::Recv);
    Self.pumpInbox();
    S.perItem(Env.MessagesChecked - Before);
  }

  void onMessage(Shard &, Value V) override {
    const int64_t Now = nowNs();
    if (!isRecord(V) || objectLength(V) < 5)
      return;
    ++Env.MessagesChecked;
    std::vector<intptr_t> Payload;
    for (size_t I = 4; I != objectLength(V); ++I)
      Payload.push_back(objectField(V, I).asFixnum());
    uint64_t Want = static_cast<uint64_t>(objectField(V, 3).asFixnum());
    if (Opt.Canary)
      ++Want;
    if (checksumOf(Payload) != Want) {
      ++Env.BadMessages;
      ++Env.Failed;
    }
    Env.Deliveries.push_back(
        {Now, static_cast<double>(Now - objectField(V, 2).asFixnum()) / 1000.0,
         objectLength(V) * sizeof(uintptr_t)});
    Root Msg(H, V);
    Span S(SpanKind::TableAccess);
    Table.access(Value::fixnum(objectField(Msg, 1).asFixnum() % 512), Msg);
  }

  void op(Rng &R) {
    ++Env.Attempted;
    {
      Root Junk(H, Value::nil());
      for (unsigned K = 0; K != 8; ++K)
        Junk = traceAlloc(H, [&] {
          return H.cons(Value::fixnum(static_cast<intptr_t>(K)), Junk.get());
        });
    }
    const uint64_t Roll = R.below(100);
    if (Roll < 25) { // Ports: open, write, then close explicitly or hold.
      const intptr_t Id = Env.Ports.openOutput(
          "/s" + std::to_string(Self.id()) + "/f" + std::to_string(R.below(64)));
      Root Handle(H, traceAlloc(H, [&] {
                    return H.makePortHandle(
                        Id, static_cast<intptr_t>(PortKind::Output));
                  }));
      {
        Span S(SpanKind::GuardianProtect);
        PortG.protect(Handle);
      }
      for (unsigned K = 0; K != 16; ++K)
        Env.Ports.writeChar(Id, static_cast<char>('a' + K));
      if (R.below(2)) {
        Env.Ports.close(Id);
        dropped(Handle, nowNs());
      } else {
        Held.push_back(Handle);
      }
    } else if (Roll < 45) { // External memory blocks.
      intptr_t Id;
      {
        Span S(SpanKind::ExtAllocate);
        Id = Env.ExtMgr.allocate(64 + R.below(512));
      }
      if (Id < 0) {
        ++Env.ExtRefused;
        ++Env.Failed;
        return;
      }
      Root Header(H, traceAlloc(H, [&] {
                    return H.makeRecord(ExtTag, 2, Value::fixnum(Id));
                  }));
      {
        Span S(SpanKind::GuardianProtect);
        ExtG.protect(Header);
      }
      const uint64_t Fate = R.below(8);
      if (Fate < 2) {
        Env.ExtMgr.free(Id); // Early free; the ticket's freeIfLive skips it.
        dropped(Header, nowNs());
      } else if (Fate < 5) {
        Held.push_back(Header);
      } else {
        dropped(Header, nowNs());
      }
    } else if (Roll < 65) { // Pool bitmaps.
      ++Env.PoolAttempts;
      Value B;
      {
        Span S(SpanKind::PoolAcquire);
        B = Pool.acquire();
      }
      if (B.isFalse()) {
        ++Env.PoolExhausted;
        ++Env.Failed;
        Pool.refillFreeList();
        return;
      }
      if (R.below(2))
        Pool.release(B);
      else
        Held.push_back(B);
    } else if (Roll < 85) { // Guarded hash table churn.
      // Half the keys are fresh strings the session drops at once, so
      // the table's guardian has entries to remove; half are fixnums.
      const intptr_t K = static_cast<intptr_t>(R.below(2048));
      Root Key(H, Value::fixnum(K));
      if (R.below(2))
        Key = traceAlloc(H, [&] { return H.makeString(std::to_string(K)); });
      Span S(SpanKind::TableAccess);
      Table.access(Key, Value::fixnum(static_cast<intptr_t>(Env.Attempted)));
    } else if (Roll < 95) { // A 64 B - 1 KiB record message to the peer.
      const size_t Fields = 8 + R.below(121);
      std::vector<intptr_t> Payload(Fields - 4);
      for (intptr_t &P : Payload)
        P = static_cast<intptr_t>(R.below(1u << 20));
      Root Msg(H, traceAlloc(H, [&] {
                 return H.makeRecord(MsgTag, Fields, Value::fixnum(0));
               }));
      {
        Span S(SpanKind::GcStore);
        S.perItem(Payload.size() + 3);
        for (size_t I = 0; I != Payload.size(); ++I)
          H.recordSet(Msg, 4 + I, Value::fixnum(Payload[I]));
        H.recordSet(Msg, 1,
                    Value::fixnum(static_cast<intptr_t>(
                        (static_cast<uint64_t>(Self.id()) << 40) | MsgSeq++)));
        H.recordSet(Msg, 3,
                    Value::fixnum(static_cast<intptr_t>(checksumOf(Payload))));
        H.recordSet(Msg, 2, Value::fixnum(nowNs()));
      }
      // A full peer inbox refuses the send: pump our own inbox, let the
      // peer run, and retry. Refusals count against send attempts.
      while (true) {
        ++Env.SendAttempts;
        bool Ok;
        {
          Span S(SpanKind::SendSmall);
          Ok = Self.sendValue(Self.peer(1 - Self.id()), Msg);
        }
        if (Ok)
          break;
        ++Env.SendRefused;
        pump();
        std::this_thread::yield();
      }
    } else { // Drop half of what the session holds.
      truncateHeld(Held.size() - Held.size() / 2);
    }
  }

  void runSession(uint64_t Id, uint32_t Step, int64_t Due, bool Scoped) {
    runOps(Id, Scoped);
    Env.Sessions.push_back({Step, Due, nowNs()});
    Env.DoneByStep[Step].fetch_add(1, std::memory_order_release);
  }

  void runOps(uint64_t Id, bool Scoped) {
    setRequest(Id);
    Rng R(Opt.Seed * 1000003 + Id);
    std::optional<ScopedExtent> Extent;
    if (Scoped)
      Extent.emplace(H);
    const size_t Mark = Held.size();
    for (size_t Op = 0; Op != OpsPerSession; ++Op) {
      op(R);
      if (Op % 32 == 31) {
        drainToExecutor();
        pump();
      }
    }
    truncateHeld(Mark);
    if (Extent) {
      Span S(SpanKind::ScopeClose);
      Extent.reset();
    }
    drainToExecutor();
    setRequest(0);
  }

  void onShutdown(Shard &) override {
    Held.clear();
    H.collectFull();
    H.collectFull();
    drainToExecutor();
    Pool.refillFreeList();
    Env.PoolOutstandingAtExit = Pool.outstanding();
    const uint64_t Accounted = Pool.outstanding() + Pool.freeListSize();
    Env.PoolUnaccounted = Pool.initializations() > Accounted
                              ? Pool.initializations() - Accounted
                              : 0;
    Pool.shutdown();
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
      Env.PortQueue = RT->executor().registerQueue(
          "ports/" + std::to_string(I), [&Env](const FinalizationTicket &T) {
            if (Env.Ports.isOpen(T.Payload)) {
              Env.Ports.flush(T.Payload);
              Env.Ports.close(T.Payload);
            }
            const int64_t Now = nowNs();
            if (T.Aux >= 0)
              Env.CleanupLags.push_back(
                  {Now, static_cast<double>(Now - T.Aux) / 1e6});
            return true;
          });
      Env.ExtQueue = RT->executor().registerQueue(
          "extmem/" + std::to_string(I), [&Env](const FinalizationTicket &T) {
            Env.ExtMgr.freeIfLive(T.Payload);
            const int64_t Now = nowNs();
            if (T.Aux >= 0)
              Env.CleanupLags.push_back(
                  {Now, static_cast<double>(Now - T.Aux) / 1e6});
            return true;
          });
    }
    // Setup ends when every shard has run one unrecorded warm-up session,
    // which faults in its first heap segments and fills its tables.
    for (size_t I = 0; I != Shards; ++I)
      RT->shard(I).run([this, I](Shard &S) { world(S).runOps(I, false); });
  }

  World &world(Shard &S) { return *static_cast<World *>(S.local()); }
  void snapshotAll(bool Start) {
    for (size_t I = 0; I != Shards; ++I)
      RT->shard(I).run([this, Start](Shard &S) { world(S).snapshot(Start); });
  }
};

} // namespace

Report runSessions(const RunOptions &O) {
  Report R;
  R.ConfigSet.push_back({"ShardRuntime::Config::ShardCount", "2"});
  R.ConfigSet.push_back({"ResourcePool.MaxOutstanding",
                         std::to_string(PoolMaxOutstanding)});

  // Setup: runtime, executor queues and both shard heaps, several times.
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

  // The open-loop generator.
  const double RateScale = O.Smoke ? 0.25 : 1.0;
  Rng Arrivals(O.Seed);
  uint64_t NextId = Shards; // Ids below Shards are the warm-up sessions.
  int64_t MaxLateNs = 0;
  std::vector<uint64_t> Posted(NumSteps, 0);
  std::vector<uint64_t> BacklogAtEnd(NumSteps, 0);
  std::vector<int64_t> StepFrom(NumSteps), StepTo(NumSteps);
  F->snapshotAll(true);
  const int64_t MeasureStart = nowNs();
  int64_t NominalFrom = 0, NominalTo = 0;
  double NominalCpu = 0, RssBeforeOverload = 0;
  for (size_t Step = 0; Step != NumSteps; ++Step) {
    const double Rate = Rates[Step] * RateScale;
    const double StepCpu0 = processCpuSeconds();
    const int64_t StepStart = nowNs();
    const int64_t StepEnd =
        StepStart + static_cast<int64_t>(O.Seconds * StepShare[Step] * 1e9);
    StepFrom[Step] = StepStart;
    StepTo[Step] = StepEnd;
    double Due = static_cast<double>(StepStart);
    while (true) {
      Due += -std::log(1.0 - Arrivals.unit()) / Rate * 1e9;
      if (Due >= StepEnd)
        break;
      const int64_t DueNs = static_cast<int64_t>(Due);
      while (nowNs() < DueNs - 60000)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      while (nowNs() < DueNs)
        ;
      MaxLateNs = std::max(MaxLateNs, nowNs() - DueNs);
      const uint64_t Id = NextId++;
      const bool Scoped = Arrivals.below(2) == 0;
      const size_t To = Arrivals.below(Shards);
      ++Posted[Step];
      F->RT->shard(To).post([F = F.get(), Id, Step, DueNs, Scoped](Shard &S) {
        F->world(S).runSession(Id, static_cast<uint32_t>(Step), DueNs, Scoped);
      });
    }
    while (nowNs() < StepEnd)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    auto DoneNow = [&] {
      uint64_t D = 0;
      for (auto &Env : F->Envs)
        D += Env->DoneByStep[Step].load(std::memory_order_acquire);
      return D;
    };
    BacklogAtEnd[Step] = Posted[Step] - DoneNow();
    while (DoneNow() != Posted[Step])
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (Step == NominalStep) {
      NominalFrom = StepStart;
      NominalTo = nowNs();
      NominalCpu = processCpuSeconds() - StepCpu0;
    }
    if (Step + 2 == NumSteps)
      RssBeforeOverload = peakRssMb(); // The overload backlog would swamp it.
  }
  const int64_t MeasureEnd = nowNs();
  F->snapshotAll(false);
  const FinalizationExecutor::Stats ES = F->RT->executor().stats();
  std::vector<Mailbox::Stats> MB;
  for (size_t I = 0; I != Shards; ++I)
    MB.push_back(F->RT->shard(I).inbox().stats());
  F->RT->shutdown();
  const FinalizationExecutor::Stats ESFinal = F->RT->executor().stats();

  // Per-step latency and the max-rate verdict.
  double MaxRate = 0;
  std::vector<double> Nominal;
  uint64_t Sessions = 0;
  for (size_t Step = 0; Step != NumSteps; ++Step) {
    std::vector<double> Lat;
    for (auto &Env : F->Envs)
      for (const SessionDone &S : Env->Sessions)
        if (S.Step == Step)
          Lat.push_back(static_cast<double>(S.Done - S.Due) / 1e6);
    Sessions += Lat.size();
    const double Rate = Rates[Step] * RateScale;
    const double P99 = percentile(Lat, 0.99);
    const bool BacklogOk =
        static_cast<double>(BacklogAtEnd[Step]) <=
        std::max(4.0, Rate * LimitMs / 1000.0);
    if (P99 <= LimitMs && BacklogOk)
      MaxRate = Rate;
    if (Step == NominalStep)
      Nominal = Lat;
    char Buf[200];
    std::snprintf(Buf, sizeof Buf,
                  "step %.0f sessions/s: %zu sessions, p50 %.3f ms, p99 %.3f "
                  "ms, backlog at step end %llu%s",
                  Rate, Lat.size(), percentile(Lat, 0.5), P99,
                  static_cast<unsigned long long>(BacklogAtEnd[Step]),
                  P99 <= LimitMs && BacklogOk ? "" : " (over limit)");
    R.Notes.push_back(Buf);
  }
  // Throughput is the capacity the overload step measures: sessions
  // completed per second while its backlog grows. (The max-rate verdict
  // above is a step value that flips between runs on a shared host as
  // the knee moves.) The other end-to-end metrics are taken over the
  // nominal step, and peak RSS before the overload step, so its backlog
  // cannot leak into them.
  uint64_t Served = 0;
  for (auto &Env : F->Envs)
    for (const SessionDone &S : Env->Sessions)
      if (S.Done >= StepFrom[NumSteps - 1] && S.Done <= StepTo[NumSteps - 1])
        ++Served;
  const double Capacity =
      static_cast<double>(Served) /
      (static_cast<double>(StepTo[NumSteps - 1] - StepFrom[NumSteps - 1]) / 1e9);
  if (static_cast<double>(BacklogAtEnd[NumSteps - 1]) <=
      Rates[NumSteps - 1] * RateScale * LimitMs / 1000.0)
    R.Notes.push_back("the overload step did not saturate the shards: "
                      "throughput_per_s is its arrival rate, not capacity");
  E.LatencyMs = Nominal;
  E.ThroughputPerS = Capacity;
  E.Ops = Nominal.size() * OpsPerSession;
  E.CpuSeconds = NominalCpu;
  E.PeakRssMb = RssBeforeOverload;

  std::vector<double> Deliv;
  uint64_t PayloadBytes = 0;
  for (auto &Env : F->Envs) {
    for (auto &[When, Ms] : Env->CleanupLags)
      if (When >= NominalFrom && When <= NominalTo)
        E.CleanupLagMs.push_back(Ms);
    for (const ShardEnv::Delivery &D : Env->Deliveries)
      if (D.When >= NominalFrom && D.When <= NominalTo) {
        Deliv.push_back(D.Us);
        PayloadBytes += D.Bytes;
      }
    R.Attempted += Env->Attempted;
    R.Failed += Env->Failed;
  }
  reportEndToEnd(R, E);
  std::vector<const PauseLog *> Logs;
  for (auto &Env : F->Envs)
    Logs.push_back(&Env->Pauses);
  reportPauses(R, Logs, NominalFrom, NominalTo, false);

  // Workload-specific views of the same run, printed.
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "session_p50_ms %.4f ms, session_p99_ms %.4f ms (nominal step "
                "%.0f sessions/s, %zu sessions); max_rate_sessions_s %.0f "
                "sessions/s (p99 limit %.0f ms)",
                percentile(Nominal, 0.5), percentile(Nominal, 0.99),
                Rates[NominalStep] * RateScale, Nominal.size(), MaxRate,
                LimitMs);
  R.Notes.push_back(Buf);
  std::snprintf(Buf, sizeof Buf,
                "delivery_p99_us %.1f us over %zu small messages, "
                "transfer_mb_s %.3f MB/s (nominal step)",
                percentile(Deliv, 0.99), Deliv.size(),
                static_cast<double>(PayloadBytes) / 1e6 /
                    (static_cast<double>(NominalTo - NominalFrom) / 1e9));
  R.Notes.push_back(Buf);

  // Correctness: loadgen's audit, plus every message's checksum.
  for (size_t I = 0; I != Shards; ++I) {
    ShardEnv &Env = *F->Envs[I];
    const std::string Tag = "sessions shard " + std::to_string(I) + ": ";
    R.check(Env.Ports.totalOpened() == Env.Ports.totalClosed(),
            Tag + "ports opened (" + std::to_string(Env.Ports.totalOpened()) +
                ") != closed (" + std::to_string(Env.Ports.totalClosed()) + ")");
    R.check(Env.ExtMgr.liveBlocks() == 0,
            Tag + std::to_string(Env.ExtMgr.liveBlocks()) +
                " external blocks leaked");
    R.check(Env.ExtMgr.doubleFrees() == 0,
            Tag + std::to_string(Env.ExtMgr.doubleFrees()) +
                " external blocks freed twice");
    R.check(Env.PoolOutstandingAtExit == 0,
            Tag + std::to_string(Env.PoolOutstandingAtExit) +
                " pool bitmaps outstanding at exit");
    R.check(Env.PoolUnaccounted == 0,
            Tag + std::to_string(Env.PoolUnaccounted) +
                " pool bitmaps unaccounted");
    R.check(Env.BadMessages == 0,
            Tag + std::to_string(Env.BadMessages) +
                " messages failed their checksum",
            /*CountsOp=*/false);
  }
  R.check(ESFinal.Quarantined == 0,
          std::to_string(ESFinal.Quarantined) + " tickets quarantined");
  R.check(ESFinal.Executed + ESFinal.Quarantined == ESFinal.Submitted,
          "executor: executed (" + std::to_string(ESFinal.Executed) +
              ") + quarantined (" + std::to_string(ESFinal.Quarantined) +
              ") != submitted (" + std::to_string(ESFinal.Submitted) + ")");

  if (!O.Traced)
    return R;

  //===--- Per-layer ledger -------------------------------------------===//
  const TraceSummary T = summarizeTrace();
  std::vector<HeapWindow> Heaps;
  uint64_t TableRemoved = 0, PoolAttempts = 0, PoolExhausted = 0;
  uint64_t ExtRefused = 0, SendAttempts = 0, SendRefused = 0, Delivered = 0;
  std::vector<double> CloseUs;
  ScopeTotals Scopes;
  for (auto &Env : F->Envs) {
    Heaps.push_back(Env->Heap);
    TableRemoved += Env->TableRemovedEnd - Env->TableRemovedStart;
    PoolAttempts += Env->PoolAttempts;
    PoolExhausted += Env->PoolExhausted;
    ExtRefused += Env->ExtRefused;
    SendAttempts += Env->SendAttempts;
    SendRefused += Env->SendRefused;
    Delivered += Env->Delivered;
    for (auto &[When, Us] : Env->ScopeCloses)
      if (When >= MeasureStart && When <= MeasureEnd)
        CloseUs.push_back(Us);
    Scopes.merge(Env->Scopes);
  }
  reportHeapLayers(R, T, Heaps, Logs, MeasureStart, MeasureEnd, Delivered);
  reportScopes(R, Scopes, CloseUs);
  reportSpan(R, T, SpanKind::TableAccess, "core.table.access.ns", 0.5, 1, "ns");
  R.set("core.table.removed", static_cast<double>(TableRemoved), "count", 1);
  reportSpan(R, T, SpanKind::PoolAcquire, "resource.pool.acquire.ns", 0.5, 1,
             "ns");
  R.set("resource.pool.exhausted_frac",
        PoolAttempts ? static_cast<double>(PoolExhausted) / PoolAttempts : 0.0,
        "fraction", PoolAttempts);
  R.set("resource.ext.refused", static_cast<double>(ExtRefused), "count", 1);
  reportSpan(R, T, SpanKind::SendSmall, "runtime.send.ns.small", 0.5, 1, "ns");
  R.set("runtime.send.refused_frac",
        SendAttempts ? static_cast<double>(SendRefused) / SendAttempts : 0.0,
        "fraction", SendAttempts);
  reportRuntime(R, T, *F->RT, ES, MB);
  R.set("runtime.generator.lag_max_ms", static_cast<double>(MaxLateNs) / 1e6, "ms",
        Sessions);
  return R;
}

} // namespace perfbench
