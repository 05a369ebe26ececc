//===- runtime/Shard.h - Shard-per-thread runtime -------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-heap runtime: N shards, each a worker thread owning a
/// private Heap, wired together by pinned-message mailboxes and sharing
/// one background FinalizationExecutor. The collector stays exactly the
/// single-threaded collector the fuzzer and oracle verify — concurrency
/// lives entirely in this layer, above the heaps.
///
/// Ownership rules (enforced by HeapConfig::CheckThreadAffinity):
///  - a shard's Heap is constructed, mutated, collected, and destroyed
///    on the shard thread, never elsewhere;
///  - Values never cross shards; only PinnedMessages do (sendValue
///    donates the graph into exchange-arena segments on the sending
///    thread, the receiver adopts them into its own generation 0);
///  - the FinalizationExecutor touches no heap: shards convert
///    resurrected guardian objects to plain-word tickets before
///    submitting.
///
/// Per-shard user state derives from ShardLocal; it is created by the
/// init callback on the shard thread (after the Heap exists) and
/// destroyed there before the Heap, so its Roots and Guardians unwind
/// while the heap is still alive. Values exported through sendValue are
/// watched by a per-shard TransportGuardian — the transport machinery
/// is the shard-exit policy: exports that later move (or die) inside
/// the sender surface there, and the count is reported per shard.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_SHARD_H
#define GENGC_RUNTIME_SHARD_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gc/HeapConfig.h"
#include "telemetry/Aggregate.h"
#include "telemetry/FleetTrace.h"
#include "support/Assert.h"
#include "runtime/FinalizationExecutor.h"
#include "runtime/Mailbox.h"
#include "runtime/PinnedMessage.h"

namespace gengc {

class Heap;

namespace runtime {

class Shard;
class ShardRuntime;

/// Base class for per-shard user state. Constructed on the shard thread
/// by the runtime's init callback, destroyed on the shard thread before
/// the Heap — so members like Root, Guardian, PortTable unwind in order.
class ShardLocal {
public:
  virtual ~ShardLocal() = default;

  /// Called on the shard thread for every inbox message, with the value
  /// already adopted into this shard's heap.
  virtual void onMessage(Shard &S, Value V) { (void)S, (void)V; }

  /// Called on the shard thread during shutdown, after the inbox is
  /// drained and before this object and the Heap are destroyed. The
  /// place for final collections, guardian drains, and last ticket
  /// submissions.
  virtual void onShutdown(Shard &S) { (void)S; }
};

/// One worker: a thread, its private Heap, its inbox, and its exit
/// watch. Created and owned by ShardRuntime.
class Shard {
public:
  using Task = std::function<void(Shard &)>;

  /// Per-shard end-of-life report, written by the shard thread just
  /// before it exits and readable (via ShardRuntime) after join.
  struct Report {
    uint32_t ShardId = 0;
    ShardGcSample Gc;
    /// The heap's event-ring snapshot plus its epoch offset from the
    /// fleet clock, for ShardRuntime::exportFleetTrace. Empty unless
    /// the heap recorded events (HeapConfig::GcTrace).
    ShardTraceSample Trace;
    uint64_t MessagesReceived = 0;
    /// Always 0: every message is adopted, none is decoded node by
    /// node. perfbench still reads it as runtime.recv.decoded_nodes.
    uint64_t MessagesDecodedNodes = 0;
    uint64_t ExportsWatched = 0;
    uint64_t ExportsMoved = 0; ///< Transport-guardian deliveries observed.
    uint64_t TasksRun = 0;
    /// Transfer accounting. Sender side: segments and payload bytes of
    /// the messages this shard's sends had accepted. Receiver side:
    /// messages this shard adopted by retagging.
    uint64_t TransferDonatedSegments = 0;
    uint64_t TransferBytesZeroCopy = 0;
    uint64_t MessagesAdopted = 0;
  };

  uint32_t id() const { return Id; }

  /// The shard's private heap. Only meaningful on the shard thread.
  Heap &heap() {
    GENGC_ASSERT(HeapPtr, "shard heap accessed outside its lifetime");
    return *HeapPtr;
  }

  ShardLocal *local() { return Local.get(); }
  Mailbox &inbox() { return Inbox; }
  FinalizationExecutor &executor() { return Exec; }

  /// A sibling shard in the same runtime, by id — the sendValue target
  /// for shard code that only holds its own Shard.
  Shard &peer(size_t I);

  /// Enqueues a task to run on the shard thread. Thread-safe.
  void post(Task T);

  /// Runs a task on the shard thread and waits for it to finish.
  /// Must NOT be called from the shard thread itself.
  void run(Task T);

  /// Transfers \p V (which lives in this shard's heap; owner thread
  /// only) to \p To without blocking, by segment donation
  /// (Heap::donateGraph). Returns false if the value is not
  /// transferable under \p Policy or the destination inbox is full or
  /// closed; a refused send frees its segments and leaves no trace.
  /// An accepted export is watched for shard exit, counted, and
  /// recorded as a send event. Use on the shard thread.
  bool sendValue(Shard &To, Value V,
                 TransferPolicy Policy = TransferPolicy::Reject);

  /// Drains inbox messages and posted tasks now (shard thread only);
  /// lets long-running shard code service cross-shard traffic mid-task.
  void pumpInbox();

  /// Submits a finalization ticket with causal-trace stamping (shard
  /// thread only): continues the trace of the message being handled,
  /// or starts a fresh one, emits a ticket-submit event on this
  /// shard's own ring, and forwards the ids to the executor so the
  /// finalize span links back in the fleet trace. Prefer this over
  /// executor().submit() from shard code.
  bool submitTicket(FinalizationExecutor::QueueId Queue, intptr_t Payload,
                    intptr_t Aux = 0);

  /// The trace id of the message currently being handled (zero outside
  /// onMessage or when the sender was untraced). Shard thread only.
  uint64_t currentTraceId() const { return CurrentTraceId; }

private:
  friend class ShardRuntime;

  Shard(uint32_t Id, HeapConfig HeapCfg, size_t MailboxCapacity,
        FinalizationExecutor &Exec);

  void threadMain(const std::function<std::unique_ptr<ShardLocal>(Shard &)>
                      &Init);
  void loopUntilStopped();
  size_t drainWorkLocked(std::unique_lock<std::mutex> &Lock);
  void requestStop();

  /// Fresh globally-unique span id: (shard + 1) << 32 | local sequence
  /// (see PinnedMessage). Shard thread only.
  uint64_t newSpanId() {
    return (static_cast<uint64_t>(Id) + 1) << 32 | ++SpanSeq;
  }
  /// Adopts \p Msg's donated segments, emits its receive event, and
  /// hands the value to the ShardLocal with CurrentTraceId set for the
  /// duration.
  void deliverMessage(PinnedMessage &Msg);

  const uint32_t Id;
  const HeapConfig HeapCfg;
  FinalizationExecutor &Exec;
  ShardRuntime *Owner = nullptr; ///< Set by ShardRuntime before start.
  Mailbox Inbox;

  // Shard-thread-only state (no lock needed; nothing else touches it
  // between thread start and join).
  Heap *HeapPtr = nullptr;
  std::unique_ptr<ShardLocal> Local;
  class TransportWatch *ExitWatch = nullptr; ///< Stack of threadMain.
  Report Rep;
  uint64_t SpanSeq = 0;         ///< Feeds newSpanId().
  uint64_t CurrentTraceId = 0;  ///< Trace of the message being handled.
  /// The fleet trace epoch (the executor's construction instant),
  /// against which the heap's epoch offset is measured.
  std::chrono::steady_clock::time_point FleetEpoch;

  std::mutex M;
  std::condition_variable WorkSignal;
  std::deque<Task> Tasks;
  bool StopRequested = false;

  std::thread Thread;
};

/// Owns the shards and the executor; orchestrates startup and the
/// drain-everything-then-tear-down shutdown sequence.
class ShardRuntime {
public:
  struct Config {
    size_t ShardCount = 1;
    HeapConfig HeapCfg;
    size_t MailboxCapacity = 64;
    FinalizationExecutor::Config ExecutorCfg;
  };

  using InitFn = std::function<std::unique_ptr<ShardLocal>(Shard &)>;

  /// Starts every shard thread; each constructs its Heap, then runs
  /// \p Init (may be null) to build its ShardLocal.
  explicit ShardRuntime(Config Cfg, InitFn Init = nullptr);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime &) = delete;
  ShardRuntime &operator=(const ShardRuntime &) = delete;

  size_t shardCount() const { return Shards.size(); }
  Shard &shard(size_t I) { return *Shards[I]; }
  FinalizationExecutor &executor() { return Exec; }

  /// The full shutdown protocol: close inboxes, let every shard drain
  /// its remaining messages and run ShardLocal::onShutdown (final
  /// collections + guardian drains + ticket submission), destroy shard
  /// state and heaps on their own threads, join, then drain the
  /// executor. Idempotent. After shutdown(), reports() is valid.
  void shutdown();

  /// Per-shard end-of-life reports; valid after shutdown().
  const std::vector<Shard::Report> &reports() const {
    GENGC_ASSERT(Shutdown, "reports() before shutdown()");
    return Reports;
  }

  /// Fleet-wide GC aggregation of the reports; valid after shutdown().
  FleetGcStats fleetGcStats() const;

  /// Writes the merged Chrome trace of every shard's event ring plus
  /// the executor's finalize spans, all on the fleet clock, to
  /// \p Path. Valid after shutdown(); returns false if the file cannot
  /// be opened. Shards record events only when HeapConfig::GcTrace (or
  /// GENGC_GC_TRACE) is set.
  bool exportFleetTrace(const std::string &Path) const;

private:
  FinalizationExecutor Exec;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::vector<Shard::Report> Reports;
  bool Shutdown = false;
};

} // namespace runtime
} // namespace gengc

#endif // GENGC_RUNTIME_SHARD_H
