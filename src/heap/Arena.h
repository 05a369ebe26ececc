//===- heap/Arena.h - Segmented memory arena ------------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The segmented memory system of Section 4: "the heap is structured as a
/// set of segments (each currently 4K bytes in size). Each segment belongs
/// to a specific space and generation; the space and generation to which
/// each segment belongs is maintained in a segment information table with
/// one entry per segment."
///
/// The arena reserves one large virtual region and hands out runs of
/// contiguous segments. An object never spans runs; objects larger than a
/// segment get a dedicated multi-segment run. The segment information
/// table gives O(1) address-to-(space, generation) lookup, which is what
/// makes weak pairs (a distinct weak-pair space) and the generational
/// forwarding test cheap.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_ARENA_H
#define GENGC_HEAP_ARENA_H

#include <cstdint>
#include <mutex>
#include <vector>

#include "support/Assert.h"

namespace gengc {

/// Segment geometry. The paper's segments are 4 KiB.
constexpr size_t SegmentBytes = 4096;
constexpr size_t SegmentWords = SegmentBytes / sizeof(uintptr_t);

/// The spaces objects are segregated into. The paper calls out the
/// ability "to segregate objects based on their characteristics, such as
/// whether they are mutable or whether they contain pointers"; weak pairs
/// "are always placed in a distinct weak-pair space".
enum class SpaceKind : uint8_t {
  Pair = 0,     ///< Ordinary cons cells (no headers).
  WeakPair = 1, ///< Weak cons cells: car is a weak pointer.
  Typed = 2,    ///< Typed objects whose payload contains tagged Values.
  Data = 3,     ///< Typed objects with pointerless payloads.
};
constexpr unsigned NumSpaces = 4;

/// Canonical display name of a space. Every consumer that labels a
/// (generation, space) coordinate — the census, the trace exporters,
/// tools — must use this one table so the labels line up across
/// outputs.
constexpr const char *spaceKindName(SpaceKind Space) {
  switch (Space) {
  case SpaceKind::Pair:
    return "pair";
  case SpaceKind::WeakPair:
    return "weak-pair";
  case SpaceKind::Typed:
    return "typed";
  case SpaceKind::Data:
    return "data";
  }
  return "unknown";
}

/// Generation sentinel carried by shared-immutable segments. Deliberately
/// above any collectible generation: the write barrier's "value older than
/// container" test then skips shared values for free, and every
/// entry-list/remembered-set index that might see it clamps explicitly.
constexpr uint8_t SharedGeneration = 0xFF;

/// Generation sentinel carried by in-flight donation segments: copied out
/// by a sender (or detached wholesale from a donation scope) but not yet
/// adopted by any heap. Distinct from every collectible generation so that
/// "in flight" can be told apart from "adopted" even on single-generation
/// heaps, where the oldest generation is also 0. Adoption retags the
/// segments to the receiver's oldest generation.
constexpr uint8_t InFlightGeneration = 0xFE;

/// Per-segment bookkeeping, one entry per segment in the arena.
struct SegmentInfo {
  static constexpr uint8_t FlagInUse = 1 << 0;
  /// Set on every segment of the generations being collected, for the
  /// duration of one collection. forwarded?(x) is "x is not in a
  /// from-space segment, or x carries a forwarding marker".
  static constexpr uint8_t FlagFromSpace = 1 << 1;
  /// Shared immutable space: frozen, barrier-exempt, never collected,
  /// referenceable from every shard. Always paired with Generation ==
  /// SharedGeneration.
  static constexpr uint8_t FlagShared = 1 << 2;
  /// Donation segment: allocated in the process exchange arena by a
  /// sending shard's copy-out (Generation == InFlightGeneration while in
  /// flight), adopted by the receiver's heap as tenured space (retagged to
  /// its oldest generation). The flag survives adoption so ownership
  /// accounting can audit the exchange arena.
  static constexpr uint8_t FlagDonated = 1 << 3;

  SpaceKind Space = SpaceKind::Pair;
  uint8_t Generation = 0;
  /// Copies survived within the current generation (tenure age). Only
  /// meaningful when the heap's TenureCopies policy exceeds 1.
  uint8_t Age = 0;
  /// Request-scope ownership: 0 for the ordinary generational ladder,
  /// d > 0 for segments belonging to the d-th open ScopedGeneration
  /// (1 = outermost). Scope segments always carry Generation 0 and
  /// Age 0 — a scope is an ephemeral nursery, not a tenure rung.
  uint8_t ScopeDepth = 0;
  uint8_t Flags = 0;

  bool inUse() const { return Flags & FlagInUse; }
  bool isFromSpace() const { return Flags & FlagFromSpace; }
  bool isShared() const { return Flags & FlagShared; }
  bool isDonated() const { return Flags & FlagDonated; }
};

/// Reserves a contiguous virtual region and manages it as runs of
/// segments with a first-fit free list.
class Arena {
public:
  /// Reserves \p TotalBytes of virtual address space (committed lazily by
  /// the OS as segments are touched).
  explicit Arena(size_t TotalBytes);
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Observer invoked on every run allocation and free. Installed by the
  /// heap's telemetry layer only when event tracing is enabled, so the
  /// default path pays one null test per run operation (runs, not
  /// objects: a run covers thousands of allocations).
  using SegmentObserver = void (*)(void *Ctx, bool IsAlloc, uint32_t First,
                                   uint32_t Count, SpaceKind Space,
                                   uint8_t Generation);
  void setSegmentObserver(SegmentObserver Fn, void *Ctx) {
    Observer = Fn;
    ObserverCtx = Ctx;
  }

  /// Allocates a run of \p NumSegments contiguous segments, tagging each
  /// with \p Space and \p Generation. Returns the index of the first
  /// segment. Aborts if the arena is exhausted (the reservation is the
  /// heap-size limit). Thread-safe: the process-wide exchange arena
  /// (heap/SharedImmutableSpace.h) is allocated from and freed to by
  /// every shard thread that donates, so the free list, the affected
  /// SegmentInfo entries, and the observer callback are all updated
  /// under one internal lock (runs, not objects — the allocation fast
  /// path never comes here).
  /// \p ExtraFlags is OR'd into every segment's flags beyond FlagInUse —
  /// FlagShared for shared-immutable runs, FlagDonated for donation runs.
  uint32_t allocateRun(uint32_t NumSegments, SpaceKind Space,
                       uint8_t Generation, uint8_t Age = 0,
                       uint8_t ScopeDepth = 0, uint8_t ExtraFlags = 0);

  /// Returns a run to the free list and clears its segment entries.
  /// Thread-safe, like allocateRun.
  void freeRun(uint32_t FirstSegment, uint32_t NumSegments);

  /// True if \p Address lies inside the arena reservation.
  bool containsAddress(uintptr_t Address) const {
    return Address >= Base && Address < Base + TotalSegments * SegmentBytes;
  }

  /// Segment index containing \p Address (which must be in the arena).
  uint32_t segmentIndexOf(uintptr_t Address) const {
    GENGC_ASSERT(containsAddress(Address), "address outside arena");
    return static_cast<uint32_t>((Address - Base) / SegmentBytes);
  }

  SegmentInfo &infoAt(uint32_t SegmentIndex) {
    GENGC_ASSERT(SegmentIndex < TotalSegments, "segment index out of range");
    return Infos[SegmentIndex];
  }
  const SegmentInfo &infoAt(uint32_t SegmentIndex) const {
    GENGC_ASSERT(SegmentIndex < TotalSegments, "segment index out of range");
    return Infos[SegmentIndex];
  }

  /// Segment info for the segment containing \p Address.
  SegmentInfo &infoFor(uintptr_t Address) {
    return Infos[segmentIndexOf(Address)];
  }
  const SegmentInfo &infoFor(uintptr_t Address) const {
    return Infos[segmentIndexOf(Address)];
  }

  /// First word of segment \p SegmentIndex.
  uintptr_t *segmentBase(uint32_t SegmentIndex) const {
    return reinterpret_cast<uintptr_t *>(Base +
                                         static_cast<uintptr_t>(SegmentIndex) *
                                             SegmentBytes);
  }

  size_t totalSegments() const { return TotalSegments; }
  size_t segmentsInUse() const { return InUseCount; }

private:
  struct FreeRun {
    uint32_t First;
    uint32_t Count;
  };

  /// Serializes allocateRun/freeRun (free list + SegmentInfo tagging +
  /// observer). A heap's private arena only ever takes it from the
  /// owner thread; the shared exchange arena is contended by concurrent
  /// donations and by the collections that free adopted runs.
  std::mutex RunLock;
  uintptr_t Base = 0;
  size_t TotalSegments = 0;
  size_t InUseCount = 0;
  SegmentObserver Observer = nullptr;
  void *ObserverCtx = nullptr;
  std::vector<SegmentInfo> Infos;
  /// Sorted by First; adjacent runs are merged on free.
  std::vector<FreeRun> FreeRuns;
};

} // namespace gengc

#endif // GENGC_HEAP_ARENA_H
