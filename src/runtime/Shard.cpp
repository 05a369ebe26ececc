//===- runtime/Shard.cpp - Shard threads and runtime orchestration -------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "runtime/Shard.h"

#include <chrono>

#include "core/TransportGuardian.h"
#include "gc/Heap.h"
#include "gc/Roots.h"

namespace gengc {
namespace runtime {

/// Shard-thread-only wrapper: the per-shard transport guardian that
/// implements the shard-exit policy. Every value exported through
/// sendValue is watched; deliveries (the object moved — or died —
/// inside the sender after export) are counted into the report.
class TransportWatch {
public:
  explicit TransportWatch(Heap &H) : TG(H) {}

  void watch(Value V) { TG.watch(V); }
  size_t drainMoved() {
    return TG.drainMoved([](Value) {});
  }

private:
  TransportGuardian TG;
};

//===----------------------------------------------------------------------===//
// Shard
//===----------------------------------------------------------------------===//

Shard::Shard(uint32_t Id, HeapConfig HeapCfg, size_t MailboxCapacity,
             FinalizationExecutor &Exec)
    : Id(Id), HeapCfg(HeapCfg), Exec(Exec), Inbox(MailboxCapacity) {
  Rep.ShardId = Id;
  Rep.Gc.ShardId = Id;
}

void Shard::post(Task T) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Tasks.push_back(std::move(T));
  }
  WorkSignal.notify_one();
}

void Shard::run(Task T) {
  GENGC_ASSERT(std::this_thread::get_id() != Thread.get_id(),
               "Shard::run from the shard's own thread would deadlock");
  std::mutex DoneM;
  std::condition_variable DoneCv;
  bool Done = false;
  post([&](Shard &S) {
    T(S);
    // Signal under the lock: DoneM/DoneCv live on the caller's stack,
    // and the caller may observe Done and destroy them the moment the
    // lock is released — an unlocked notify could still be inside the
    // condition variable at that point.
    std::lock_guard<std::mutex> Lock(DoneM);
    Done = true;
    DoneCv.notify_one();
  });
  std::unique_lock<std::mutex> Lock(DoneM);
  DoneCv.wait(Lock, [&] { return Done; });
}

bool Shard::sendValue(Shard &To, Value V, TransferPolicy Policy) {
  GENGC_ASSERT(HeapPtr && HeapPtr->onOwnerThread(),
               "sendValue must run on the sending shard's thread");
  Root RV(*HeapPtr, V);
  // One evacuation into exchange-arena segments on this thread; the
  // receiver adopts them by retagging, copying nothing.
  PinnedMessage Msg;
  Msg.Graph = HeapPtr->donateGraph(RV.get(), Policy);
  if (!Msg.Graph.Domain)
    return false; // Rejected: a kind that cannot cross shards.
  const size_t Segments = Msg.Graph.segmentCount();
  const uint64_t Bytes = Msg.Graph.Bytes;
  // Causal stamping: this hop gets a fresh span; the trace is the one
  // we are handling (message-triggered sends chain) or starts here.
  const uint64_t SpanId = newSpanId();
  const uint64_t TraceId = CurrentTraceId ? CurrentTraceId : SpanId;
  Msg.SpanId = SpanId;
  Msg.TraceId = TraceId;
  GcTelemetry &Tel = HeapPtr->telemetry();
  // Stamped before the enqueue, so the send precedes the receive on
  // the fleet clock.
  const uint64_t SentAt = Tel.now();
  // A refused message is dropped inside trySend, which frees its
  // segments; nothing below happens for it.
  if (!To.Inbox.trySend(std::move(Msg)))
    return false;

  // Shard-exit policy: watch the exported value through the transport
  // guardian, so later movement (or death) inside this shard is
  // observable — the receiver holds only a copy, and the sender's graph
  // is untouched.
  ExitWatch->watch(RV.get());
  ++Rep.ExportsWatched;
  Rep.TransferDonatedSegments += Segments;
  Rep.TransferBytesZeroCopy += Bytes;
  GcEvent E;
  E.Type = GcEventType::MessageSend;
  E.TimeNanos = SentAt;
  E.A = TraceId;
  E.B = SpanId;
  E.Detail = static_cast<uint16_t>(To.id());
  Tel.emit(E);
  return true;
}

void Shard::deliverMessage(PinnedMessage &Msg) {
  ++Rep.MessagesReceived;
  ++Rep.MessagesAdopted;
  {
    GcTelemetry &Tel = HeapPtr->telemetry();
    GcEvent E;
    E.Type = GcEventType::MessageReceive;
    E.TimeNanos = Tel.now();
    E.A = Msg.TraceId;
    E.B = Msg.SpanId;
    // The sending shard is recoverable from the span id's high word.
    E.Detail = static_cast<uint16_t>((Msg.SpanId >> 32) - 1);
    Tel.emit(E);
  }
  {
    Root RV(*HeapPtr, HeapPtr->adoptDonatedGraph(Msg.Graph));
    // The handler runs inside the sender's trace: sends and ticket
    // submissions it performs chain onto the same causal arrow.
    CurrentTraceId = Msg.TraceId;
    if (Local)
      Local->onMessage(*this, RV.get());
    CurrentTraceId = 0;
  }
  Rep.ExportsMoved += ExitWatch->drainMoved();
}

bool Shard::submitTicket(FinalizationExecutor::QueueId Queue,
                         intptr_t Payload, intptr_t Aux) {
  GENGC_ASSERT(HeapPtr && HeapPtr->onOwnerThread(),
               "submitTicket must run on the shard thread");
  const uint64_t SpanId = newSpanId();
  const uint64_t TraceId = CurrentTraceId ? CurrentTraceId : SpanId;
  {
    GcTelemetry &Tel = HeapPtr->telemetry();
    GcEvent E;
    E.Type = GcEventType::TicketSubmit;
    E.TimeNanos = Tel.now();
    E.A = TraceId;
    E.B = SpanId;
    E.Detail = static_cast<uint16_t>(Queue);
    Tel.emit(E);
  }
  return Exec.submit(Queue, Payload, Aux, TraceId, SpanId);
}

void Shard::pumpInbox() {
  GENGC_ASSERT(HeapPtr && HeapPtr->onOwnerThread(),
               "pumpInbox must run on the shard thread");
  // Messages only — deliberately NOT posted tasks: pumpInbox is called
  // from inside running tasks, and re-entering the task queue there
  // would nest task executions arbitrarily deep.
  PinnedMessage Msg;
  while (Inbox.tryReceive(Msg))
    deliverMessage(Msg);
}

Shard &Shard::peer(size_t I) {
  GENGC_ASSERT(Owner, "peer() on a shard outside a runtime");
  return Owner->shard(I);
}

size_t Shard::drainWorkLocked(std::unique_lock<std::mutex> &Lock) {
  size_t Ran = 0;
  while (true) {
    // Posted tasks first (they are rarer and often control messages).
    if (!Tasks.empty()) {
      Task T = std::move(Tasks.front());
      Tasks.pop_front();
      Lock.unlock();
      T(*this);
      ++Rep.TasksRun;
      Lock.lock();
      ++Ran;
      continue;
    }
    Lock.unlock();
    PinnedMessage Msg;
    const bool Got = Inbox.tryReceive(Msg);
    if (Got) {
      deliverMessage(Msg);
      Lock.lock();
      ++Ran;
      continue;
    }
    Lock.lock();
    return Ran;
  }
}

void Shard::loopUntilStopped() {
  std::unique_lock<std::mutex> Lock(M);
  while (true) {
    drainWorkLocked(Lock);
    if (StopRequested && Tasks.empty() && Inbox.depth() == 0)
      return;
    // Sleep until a post() or an inbox wake. The timeout is a safety
    // net for the close() race (close is not routed through the wake
    // hook); it only matters during shutdown.
    WorkSignal.wait_for(Lock, std::chrono::milliseconds(50), [this] {
      return !Tasks.empty() || Inbox.depth() != 0 || StopRequested;
    });
  }
}

void Shard::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    StopRequested = true;
  }
  WorkSignal.notify_one();
}

void Shard::threadMain(
    const std::function<std::unique_ptr<ShardLocal>(Shard &)> &Init) {
  // The heap is constructed here so the shard thread is its owner; it
  // lives on the stack of the thread, making any use-after-exit loud.
  Heap H(HeapCfg);
  HeapPtr = &H;
  H.addPostGcHook([this](Heap &, const GcStats &St) {
    Rep.Gc.Pauses.record(St.DurationNanos);
  });
  {
    TransportWatch Watch(H);
    ExitWatch = &Watch;
    // Locking M inside the hook closes the missed-wakeup window: a
    // sender cannot notify between the loop's predicate check and its
    // actual wait.
    Inbox.setWakeHook([this] {
      { std::lock_guard<std::mutex> Lock(M); }
      WorkSignal.notify_one();
    });
    if (Init)
      Local = Init(*this);

    loopUntilStopped();

    // Shutdown on the owning thread: user drains (collections, guardian
    // sweeps, ticket submission), then state unwinds before the heap.
    if (Local)
      Local->onShutdown(*this);
    Rep.ExportsMoved += ExitWatch->drainMoved();
    Local.reset();
    Inbox.setWakeHook(nullptr);
    ExitWatch = nullptr;
  }
  Rep.Gc.Totals = H.totals();
  Rep.Gc.BytesAllocated = H.totalBytesAllocated();
  {
    const GcTelemetry &Tel = H.telemetry();
    Rep.Gc.Clips = Tel.pauseClips();
    Rep.Gc.MutatorNanos = Tel.now();
    Rep.Gc.SloPauseViolations = Tel.SloPauseViolations;
    Rep.Trace.ShardId = Id;
    Rep.Trace.EpochOffsetNanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Tel.Epoch -
                                                             FleetEpoch)
            .count();
    Rep.Trace.Events = Tel.Ring.snapshot();
  }
  HeapPtr = nullptr;
}

//===----------------------------------------------------------------------===//
// ShardRuntime
//===----------------------------------------------------------------------===//

ShardRuntime::ShardRuntime(Config Cfg, InitFn Init) : Exec(Cfg.ExecutorCfg) {
  GENGC_ASSERT(Cfg.ShardCount >= 1, "runtime needs at least one shard");
  Shards.reserve(Cfg.ShardCount);
  for (size_t I = 0; I != Cfg.ShardCount; ++I) {
    Shards.emplace_back(std::unique_ptr<Shard>(new Shard(
        static_cast<uint32_t>(I), Cfg.HeapCfg, Cfg.MailboxCapacity, Exec)));
    Shards.back()->Owner = this;
    // The executor (constructed before any shard) anchors the fleet
    // trace clock; every shard heap's epoch offset is measured from it.
    Shards.back()->FleetEpoch = Exec.epoch();
  }
  for (auto &S : Shards) {
    Shard *P = S.get();
    P->Thread = std::thread([P, Init] { P->threadMain(Init); });
  }
}

ShardRuntime::~ShardRuntime() { shutdown(); }

void ShardRuntime::shutdown() {
  if (Shutdown)
    return;
  Shutdown = true;
  // 1. No new cross-shard traffic; queued messages stay receivable.
  for (auto &S : Shards)
    S->inbox().close();
  // 2. Shards drain remaining inboxes/tasks, run onShutdown, tear down
  //    their ShardLocal and Heap on their own threads, and exit.
  for (auto &S : Shards)
    S->requestStop();
  for (auto &S : Shards)
    if (S->Thread.joinable())
      S->Thread.join();
  // 3. With every shard's tickets submitted, drain the executor; after
  //    this nothing in the process references any (now-dead) heap.
  Exec.drainAndStop();
  // Reports were written by the shard threads; joined, so safe to copy.
  Reports.clear();
  for (auto &S : Shards)
    Reports.push_back(S->Rep);
}

FleetGcStats ShardRuntime::fleetGcStats() const {
  std::vector<ShardGcSample> Samples;
  for (const Shard::Report &R : reports())
    Samples.push_back(R.Gc);
  return aggregateShards(Samples);
}

bool ShardRuntime::exportFleetTrace(const std::string &Path) const {
  std::vector<ShardTraceSample> Samples;
  for (const Shard::Report &R : reports())
    Samples.push_back(R.Trace);
  return dumpFleetTraceToFile(Samples, Exec.finalizeSpans(), Path);
}

} // namespace runtime
} // namespace gengc
