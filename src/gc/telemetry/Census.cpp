//===- gc/telemetry/Census.cpp - On-demand heap census --------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "gc/telemetry/Census.h"

#include <cstdint>

#include "gc/ScopedGeneration.h"
#include "heap/ObjectWalk.h"
#include "heap/SharedImmutableSpace.h"

using namespace gengc;

namespace {

CensusKind censusKindOf(ObjectKind K) {
  switch (K) {
  case ObjectKind::Vector:
    return CensusKind::Vector;
  case ObjectKind::String:
    return CensusKind::String;
  case ObjectKind::Symbol:
    return CensusKind::Symbol;
  case ObjectKind::Box:
    return CensusKind::Box;
  case ObjectKind::Flonum:
    return CensusKind::Flonum;
  case ObjectKind::Bytevector:
    return CensusKind::Bytevector;
  case ObjectKind::Closure:
    return CensusKind::Closure;
  case ObjectKind::Primitive:
    return CensusKind::Primitive;
  case ObjectKind::PortHandle:
    return CensusKind::PortHandle;
  case ObjectKind::Record:
    return CensusKind::Record;
  case ObjectKind::Guardian:
    return CensusKind::Guardian;
  case ObjectKind::Forward:
    break; // Never live outside a collection; asserted by the caller.
  }
  GENGC_UNREACHABLE("census walk met a forwarding header");
}

} // namespace

HeapCensus Heap::census() const {
  GENGC_ASSERT(!InGc, "census during collection");
  HeapCensus C;
  C.Generations = Cfg.Generations;

  auto Accumulate = [&](const Arena &A, const SpaceContext &Ctx,
                        SpaceKind Space, HeapCensus::Cell &Cell) {
    for (const SegmentRun &R : Ctx.runs())
      Cell.SegmentCount += R.SegmentCount;
    WalkCursor Cur;
    walkObjects(A, Ctx, Space, Cur, [&](uintptr_t *P) {
      const size_t Words = objectWordsAt(P, Space);
      CensusKind K = CensusKind::Pair;
      if (Space == SpaceKind::WeakPair)
        K = CensusKind::WeakPair;
      else if (!isPairSpace(Space))
        K = censusKindOf(headerKind(*P));
      ++Cell.ObjectCount;
      Cell.UsedBytes += Words * sizeof(uintptr_t);
      C.KindCounts[static_cast<unsigned>(K)] += 1;
      C.KindBytes[static_cast<unsigned>(K)] += Words * sizeof(uintptr_t);
    });
  };

  for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
    const SpaceKind Space = static_cast<SpaceKind>(Sp);
    for (unsigned G = 0; G != Cfg.Generations; ++G)
      for (unsigned Age = 0; Age != Cfg.TenureCopies; ++Age)
        Accumulate(Segments, Contexts[Sp][G][Age], Space, C.Cells[G][Sp]);
    // Adopted donation runs live in the exchange arena but are this
    // heap's generation 0, which their segments are tagged with.
    Accumulate(Exchange->arena(), AdoptedRuns[Sp], Space, C.Cells[0][Sp]);
  }

  // Open request scopes are counted under generation 0: their segments
  // are tagged generation 0 and their survivors graduate toward it.
  // Donation scopes allocate from the exchange arena.
  for (const auto &SG : ScopeStack)
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp)
      Accumulate(*SG->ScopeArena, SG->Contexts[Sp], static_cast<SpaceKind>(Sp),
                 C.Cells[0][Sp]);

  return C;
}
