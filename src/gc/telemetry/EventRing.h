//===- gc/telemetry/EventRing.h - Typed GC event ring buffer --*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity ring of typed GC events. The heap is single-threaded
/// (collections are stop-the-world and run on the mutator's thread), so
/// the ring needs no locks: one writer bumps a monotonic sequence number
/// and overwrites the oldest slot. Wrapping therefore always discards
/// the *oldest* events and keeps the newest — the property the trace
/// exporter and tests rely on. Readers (the exporters) run between
/// collections and take a snapshot in sequence order.
///
/// Recording is gated above this layer (GcTelemetry::emit branches on a
/// single flag), so a heap with tracing disabled never constructs slots
/// or touches the ring.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_GC_TELEMETRY_EVENTRING_H
#define GENGC_GC_TELEMETRY_EVENTRING_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gengc {

/// What happened. Span-like entries carry their duration in DurNanos;
/// instantaneous entries leave it zero.
enum class GcEventType : uint8_t {
  CollectionBegin = 0, ///< A = collection index.
  CollectionEnd,       ///< A = bytes copied, B = segments freed,
                       ///< DurNanos = pause. Detail = target generation.
  PhaseSpan,           ///< Detail = GcPhase, DurNanos = phase time.
  GuardianResurrection,///< One pend-final fixpoint round. Detail = loop
                       ///< iteration, A = entries delivered this round,
                       ///< B = the generation the saved entries were
                       ///< parked in (the census generation axis;
                       ///< Generation stays the collected generation,
                       ///< matching every other event).
  TenurePromotion,     ///< A = objects promoted, B = bytes copied
                       ///< (aggregate for the collection).
  SegmentAlloc,        ///< A = first segment, B = run length. Detail =
                       ///< space kind. Fires from the arena, including
                       ///< for mutator allocation between collections.
  SegmentFree,         ///< A = first segment, B = run length.
  MessageSend,         ///< Cross-shard send (runtime tier). A = trace
                       ///< id, B = span id, Detail = destination shard.
                       ///< Emitted on the sending shard's own ring —
                       ///< every runtime event keeps the ring's
                       ///< single-writer contract by writing only to
                       ///< the heap owned by the emitting thread.
  MessageReceive,      ///< Cross-shard receive. A = trace id, B = span
                       ///< id, Detail = source shard.
  TicketSubmit,        ///< Finalization ticket handed to the executor.
                       ///< A = trace id, B = span id, Detail = queue.
};
constexpr unsigned NumGcEventTypes = 11;

/// Display name of an event type (stable identifiers used by both
/// exporters).
constexpr const char *gcEventTypeName(GcEventType T) {
  switch (T) {
  case GcEventType::CollectionBegin:
    return "collection-begin";
  case GcEventType::CollectionEnd:
    return "collection-end";
  case GcEventType::PhaseSpan:
    return "phase";
  case GcEventType::GuardianResurrection:
    return "guardian-resurrection";
  case GcEventType::TenurePromotion:
    return "tenure-promotion";
  case GcEventType::SegmentAlloc:
    return "segment-alloc";
  case GcEventType::SegmentFree:
    return "segment-free";
  case GcEventType::MessageSend:
    return "msg-send";
  case GcEventType::MessageReceive:
    return "msg-recv";
  case GcEventType::TicketSubmit:
    return "ticket-submit";
  }
  return "unknown";
}

/// One recorded event. TimeNanos is relative to the owning heap's
/// construction (its telemetry epoch); for span events it is the span's
/// *start*.
struct GcEvent {
  uint64_t Seq = 0;       ///< Monotonic sequence number (never wraps).
  uint64_t TimeNanos = 0; ///< Start time, nanos since the heap epoch.
  uint64_t DurNanos = 0;  ///< Span duration; 0 for instant events.
  uint64_t A = 0;         ///< Type-specific payload (see GcEventType).
  uint64_t B = 0;         ///< Second payload word.
  uint32_t Collection = 0;///< Collection index the event belongs to
                          ///< (0 outside any collection).
  GcEventType Type = GcEventType::CollectionBegin;
  uint8_t Generation = 0; ///< Collected generation / segment generation.
  uint16_t Detail = 0;    ///< Phase, space kind, or loop iteration.
};

class GcEventRing {
public:
  GcEventRing() = default;

  /// (Re)sizes the ring to \p Capacity slots and clears it.
  void reset(size_t Capacity) {
    Slots.assign(Capacity, GcEvent());
    NextSeq = 0;
  }

  size_t capacity() const { return Slots.size(); }

  /// Events currently held (min(recorded, capacity)).
  size_t size() const {
    return NextSeq < Slots.size() ? static_cast<size_t>(NextSeq)
                                  : Slots.size();
  }

  /// Total events ever recorded, including those overwritten by wraps.
  uint64_t recorded() const { return NextSeq; }

  /// Records one event, overwriting the oldest slot once full. The
  /// ring's sequence counter stamps the event.
  void push(const GcEvent &E) {
    if (Slots.empty())
      return;
    GcEvent &Slot = Slots[static_cast<size_t>(NextSeq % Slots.size())];
    Slot = E;
    Slot.Seq = NextSeq++;
  }

  /// The retained events, oldest first (sequence order).
  std::vector<GcEvent> snapshot() const {
    std::vector<GcEvent> Out;
    const size_t N = size();
    Out.reserve(N);
    const uint64_t First = NextSeq - N;
    for (uint64_t S = First; S != NextSeq; ++S)
      Out.push_back(Slots[static_cast<size_t>(S % Slots.size())]);
    return Out;
  }

private:
  std::vector<GcEvent> Slots;
  uint64_t NextSeq = 0;
};

} // namespace gengc

#endif // GENGC_GC_TELEMETRY_EVENTRING_H
