//===- heap/SpaceContext.h - Per-(space, generation) allocation -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bump allocation state for one (space, generation). Objects are
/// allocated into an ordered list of segment runs; the order of objects
/// within the run list is allocation order, which is exactly what the
/// collector's Cheney sweep walks.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_SPACECONTEXT_H
#define GENGC_HEAP_SPACECONTEXT_H

#include <utility>
#include <vector>

#include "heap/Arena.h"
#include "support/MathExtras.h"

namespace gengc {

/// A run of contiguous segments holding objects in allocation order.
struct SegmentRun {
  uint32_t FirstSegment = 0;
  uint32_t SegmentCount = 0;
  /// Words of the run occupied by objects. For the run currently being
  /// bumped into, SpaceContext::usedWordsOf() computes this live.
  uint32_t UsedWords = 0;
};

/// Bump-allocation state for one (space, generation).
class SpaceContext {
public:
  /// Allocates \p Words words (Words >= 2) from the context, taking new
  /// runs from \p A tagged (\p Space, \p Generation) as needed. Never
  /// triggers collection; collection policy lives above this layer.
  uintptr_t *allocate(Arena &A, SpaceKind Space, uint8_t Generation,
                      size_t Words, uint8_t Age = 0,
                      uint8_t ScopeDepth = 0, uint8_t ExtraFlags = 0) {
    GENGC_ASSERT(Words >= 2, "objects must be at least two words");
    if (Alloc + Words <= Limit) {
      uintptr_t *P = Alloc;
      Alloc += Words;
      BytesAllocated += Words * sizeof(uintptr_t);
      return P;
    }
    return allocateSlow(A, Space, Generation, Words, Age, ScopeDepth,
                        ExtraFlags);
  }

  const std::vector<SegmentRun> &runs() const { return Runs; }

  /// Words used in run \p I, accounting for the live bump pointer of the
  /// current (last) run.
  size_t usedWordsOf(const Arena &A, size_t I) const {
    const SegmentRun &R = Runs[I];
    if (I + 1 == Runs.size() && Alloc != nullptr) {
      uintptr_t *RunBase = A.segmentBase(R.FirstSegment);
      if (Alloc >= RunBase &&
          Alloc <= RunBase + static_cast<size_t>(R.SegmentCount) *
                                 SegmentWords)
        return static_cast<size_t>(Alloc - RunBase);
    }
    return R.UsedWords;
  }

  /// Total bytes ever bump-allocated in this context (monotonic until
  /// reset()).
  uint64_t bytesAllocated() const { return BytesAllocated; }

  /// Total words currently occupied by objects.
  size_t usedWords(const Arena &A) const {
    size_t Total = 0;
    for (size_t I = 0, E = Runs.size(); I != E; ++I)
      Total += usedWordsOf(A, I);
    return Total;
  }

  bool empty() const { return Runs.empty(); }

  /// Detaches the run list (for use as a collection's from-space) and
  /// resets the context to empty.
  std::vector<SegmentRun> takeRuns(const Arena &A) {
    sealCurrentRun(A);
    std::vector<SegmentRun> Out = std::move(Runs);
    Runs.clear();
    Alloc = Limit = nullptr;
    BytesAllocated = 0;
    return Out;
  }

  /// Records the final used size of the run being bumped into. Called
  /// before the run list is walked or detached.
  void sealCurrentRun(const Arena &A) {
    if (!Runs.empty())
      Runs.back().UsedWords = static_cast<uint32_t>(usedWordsOf(A, Runs.size() - 1));
  }

private:
  uintptr_t *allocateSlow(Arena &A, SpaceKind Space, uint8_t Generation,
                          size_t Words, uint8_t Age, uint8_t ScopeDepth,
                          uint8_t ExtraFlags) {
    sealCurrentRun(A);
    uint32_t NumSegments =
        static_cast<uint32_t>(divideCeil(Words, SegmentWords));
    uint32_t First =
        A.allocateRun(NumSegments, Space, Generation, Age, ScopeDepth,
                      ExtraFlags);
    Runs.push_back({First, NumSegments, 0});
    uintptr_t *RunBase = A.segmentBase(First);
    Alloc = RunBase + Words;
    Limit = RunBase + static_cast<size_t>(NumSegments) * SegmentWords;
    BytesAllocated += Words * sizeof(uintptr_t);
    return RunBase;
  }

  std::vector<SegmentRun> Runs;
  uintptr_t *Alloc = nullptr;
  uintptr_t *Limit = nullptr;
  uint64_t BytesAllocated = 0;
};

} // namespace gengc

#endif // GENGC_HEAP_SPACECONTEXT_H
