//===- heap/ObjectWalk.h - Object walk, slot scan and copy core -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three building blocks of Section 4's copying algorithm, shared by
/// every piece of code that copies, walks or scans heap objects: the
/// resumable bump walk (the Cheney scan), the pointer-slot enumerator,
/// and the raw object copy. Callers keep only their policy: forwarding
/// markers or a side map, which slots count, and what to do with each.
/// src/testing's shadow model stays independent of this core, so it can
/// serve as the oracle the core is checked against (DESIGN.md §11.1).
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_OBJECTWALK_H
#define GENGC_HEAP_OBJECTWALK_H

#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "heap/Arena.h"
#include "heap/SpaceContext.h"
#include "object/Layout.h"

namespace gengc {

/// True for the spaces of headerless two-word pair cells.
constexpr bool isPairSpace(SpaceKind Space) {
  return Space == SpaceKind::Pair || Space == SpaceKind::WeakPair;
}

/// First word of the heap object \p V points to.
inline uintptr_t *objectStart(Value V) {
  return reinterpret_cast<uintptr_t *>(V.heapAddress());
}

/// The tagged value of the object starting at \p P in \p Space.
inline Value objectValueAt(uintptr_t *P, SpaceKind Space) {
  return isPairSpace(Space) ? Value::pair(reinterpret_cast<PairCell *>(P))
                            : Value::object(P);
}

/// Words the allocator reserved for the object starting at \p P.
inline size_t objectWordsAt(const uintptr_t *P, SpaceKind Space) {
  return isPairSpace(Space) ? 2 : objectAllocWords(*P);
}

namespace detail {

/// Calls a visitor that returns void (keep going) or bool (false stops).
template <typename Fn, typename... Args>
inline bool visitContinues(Fn &Visit, Args &&...As) {
  if constexpr (std::is_void_v<std::invoke_result_t<Fn &, Args...>>) {
    Visit(std::forward<Args>(As)...);
    return true;
  } else {
    return static_cast<bool>(Visit(std::forward<Args>(As)...));
  }
}

} // namespace detail

/// Position of a bump walk within a run list, in allocation order.
struct WalkCursor {
  size_t Run = 0;
  size_t Offset = 0; ///< Words from the start of run Run.
};

/// Cursor at \p Ctx's current allocation frontier: a walk from here sees
/// exactly the objects allocated after this call.
inline WalkCursor walkFrontier(const Arena &A, const SpaceContext &Ctx) {
  if (Ctx.runs().empty())
    return WalkCursor{};
  const size_t Last = Ctx.runs().size() - 1;
  return WalkCursor{Last, Ctx.usedWordsOf(A, Last)};
}

/// Visits every object of \p Ctx from \p Cur up to the live frontier,
/// calling Visit(uintptr_t *Start) in allocation order. The frontier is
/// re-read after every object, so objects the visitor allocates into
/// \p Ctx are visited by this same call. A visitor returning false stops
/// the walk just past its object. A run whose objects overrun its used
/// extent (a corrupt header) is passed to Overshot(const SegmentRun &),
/// and the walk moves on to the next run. Returns the number of objects
/// visited; \p Cur is left at the frontier (or just past the stopping
/// object), ready to resume.
template <typename VisitFn, typename OvershotFn>
size_t walkObjects(const Arena &A, const SpaceContext &Ctx, SpaceKind Space,
                   WalkCursor &Cur, VisitFn &&Visit, OvershotFn &&Overshot) {
  // A reference to the vector itself stays valid while the visitor
  // appends runs; references to its elements would not.
  const std::vector<SegmentRun> &Runs = Ctx.runs();
  size_t Visited = 0;
  while (Cur.Run < Runs.size()) {
    const size_t Used = Ctx.usedWordsOf(A, Cur.Run);
    if (Cur.Offset >= Used) {
      if (Cur.Offset > Used)
        Overshot(Runs[Cur.Run]);
      if (Cur.Run + 1 == Runs.size())
        break; // Caught up with the allocation frontier.
      ++Cur.Run;
      Cur.Offset = 0;
      continue;
    }
    uintptr_t *P = A.segmentBase(Runs[Cur.Run].FirstSegment) + Cur.Offset;
    Cur.Offset += objectWordsAt(P, Space);
    ++Visited;
    if (!detail::visitContinues(Visit, P))
      break;
  }
  return Visited;
}

/// walkObjects for callers that trust the heap: an overshoot is fatal.
template <typename VisitFn>
size_t walkObjects(const Arena &A, const SpaceContext &Ctx, SpaceKind Space,
                   WalkCursor &Cur, VisitFn &&Visit) {
  return walkObjects(A, Ctx, Space, Cur, std::forward<VisitFn>(Visit),
                     [](const SegmentRun &) {
                       fatalError(__FILE__, __LINE__,
                                  "bump walk overshot a run's used extent");
                     });
}

/// Calls Slot(uintptr_t *Word, bool WeakCar) for every pointer slot of
/// the object starting at \p P in \p Space: a pair's car and cdr (the car
/// flagged WeakCar in the weak-pair space), or each tagged payload slot
/// of a typed object; pointerless kinds have none. A Slot returning
/// false stops the scan, and forEachSlot then returns false.
template <typename SlotFn>
inline bool forEachSlot(uintptr_t *P, SpaceKind Space, SlotFn &&Slot) {
  if (isPairSpace(Space))
    return detail::visitContinues(Slot, P, Space == SpaceKind::WeakPair) &&
           detail::visitContinues(Slot, P + 1, false);
  const uintptr_t Header = *P;
  GENGC_ASSERT(headerKind(Header) != ObjectKind::Forward,
               "slot scan met a forwarding header");
  if (!kindHasPointers(headerKind(Header)))
    return true;
  uintptr_t *End = P + objectSizeInWords(Header);
  for (uintptr_t *W = P + 1; W != End; ++W)
    if (!detail::visitContinues(Slot, W, false))
      return false;
  return true;
}

/// Copies the object starting at \p From in \p Space into storage
/// obtained from Alloc(size_t Words), where Words is the allocator's
/// reservation for the object: a pair cell's two words, or a typed
/// object's header and payload, plus a zeroed pad word when the object
/// is one word long (every object gets room for a forwarding pointer).
/// Returns the copy's first word.
template <typename AllocFn>
inline uintptr_t *copyObject(const uintptr_t *From, SpaceKind Space,
                             AllocFn &&Alloc) {
  if (isPairSpace(Space)) {
    uintptr_t *To = Alloc(size_t(2));
    To[0] = From[0];
    To[1] = From[1];
    return To;
  }
  const size_t Words = objectSizeInWords(*From);
  const size_t AllocWords = Words < 2 ? 2 : Words;
  uintptr_t *To = Alloc(AllocWords);
  std::memcpy(To, From, Words * sizeof(uintptr_t));
  if (AllocWords > Words)
    To[Words] = 0; // Deterministic padding for the verifier.
  return To;
}

} // namespace gengc

#endif // GENGC_HEAP_OBJECTWALK_H
