//===- heap/SharedImmutableSpace.h - Process-wide exchange space -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide exchange domain backing zero-copy inter-shard
/// transfer (DESIGN.md §14). One arena, distinct from every shard's
/// private arena, serves two kinds of segments:
///
///  - **Shared immutable segments** (SegmentInfo::FlagShared, Generation
///    == SharedGeneration): frozen, never collected, never moved,
///    referenceable from every shard without barriers or copies.
///    Published via the freeze-and-publish protocol (freeze() /
///    internShared()); nothing may ever store into them — the write
///    barrier aborts on such stores, and tools/rootcheck lints for them
///    statically.
///
///  - **Donation segments** (SegmentInfo::FlagDonated): sealed segments
///    holding a self-contained message graph copied out (or re-tagged
///    wholesale from a donation scope) by a sending shard. While in
///    flight they carry InFlightGeneration and are owned by the
///    DonatedGraph handle; on receipt, Heap::adoptDonatedGraph retags
///    them to the receiver's generation 0 and appends them to its
///    adopted run lists — ownership moves, bytes do not. The receiver's
///    next collection evacuates the survivors and frees the segments.
///
/// Thread safety: freeze/internShared serialize on one mutex (publishing
/// is rare and cold); donation copy-out allocates runs through the
/// arena's own run lock, one lock acquisition per run, never per object
/// — the collector itself stays lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_HEAP_SHAREDIMMUTABLESPACE_H
#define GENGC_HEAP_SHAREDIMMUTABLESPACE_H

#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "heap/Arena.h"
#include "heap/SpaceContext.h"
#include "object/Value.h"

namespace gengc {

class Heap;
class SharedImmutableSpace;

/// What to do when a donated graph reaches an object that cannot cross
/// shards: a closure, primitive, port handle or guardian.
enum class TransferPolicy : uint8_t {
  Reject, ///< Heap::donateGraph fails; nothing may be sent.
  Sever,  ///< The offending slot arrives as #f; counted in the handle.
};

/// A symbol slot inside a donated graph. Symbols keep per-heap eq?
/// identity through the intern table, so they are never donated; the
/// copy-out leaves #f in the slot and records the name, and adoption
/// re-interns the name on the receiving heap and patches the slot.
struct DonatedSymbolFixup {
  /// The placeholder word inside the donated segments. Stable for the
  /// graph's whole life: donation segments never move until after
  /// adoption patches them.
  uintptr_t *Slot;
  /// Tagged bits of the donated container holding Slot — equally stable.
  /// When the receiver interns the name inside an open request scope,
  /// the container becomes one of that scope's escape roots.
  uintptr_t ContainerBits;
  /// The slot is a weak pair's car; the container is then a weak escape.
  bool WeakCar;
  std::string Name;
};

/// A self-contained message graph living in sealed donation segments of
/// the exchange arena. A handle whose Domain is null carries nothing:
/// it is default-constructed, already adopted, or the result of a
/// refused donation. Move-only; the handle owns the segments until
/// adoption (Heap::adoptDonatedGraph empties it) or destruction (the
/// runs are freed back to the exchange arena — a dropped message leaks
/// nothing).
struct DonatedGraph {
  SharedImmutableSpace *Domain = nullptr;
  /// Donated runs per space, in copy-out allocation order with
  /// UsedWords sealed. Space tags matter: weak pairs must land in
  /// weak-pair-space segments so the receiving collector keeps treating
  /// them as weak.
  std::vector<SegmentRun> Runs[NumSpaces];
  /// The graph's root: a tagged pointer into the donated segments, a
  /// shared-immutable pointer, or an immediate. Meaningless when
  /// RootIsSymbol.
  uintptr_t RootBits = 0;
  /// The root itself is a symbol: nothing was copied, adoption interns
  /// RootSymbolName instead of reading RootBits.
  bool RootIsSymbol = false;
  std::string RootSymbolName;
  std::vector<DonatedSymbolFixup> Fixups;
  /// Payload bytes resident in the donated runs — the bytes the
  /// receiver does NOT copy.
  uint64_t Bytes = 0;
  /// Slots written as #f under TransferPolicy::Sever.
  uint64_t SeveredEdges = 0;
  /// GcFaultInjection::LeakDonatedSegment: destruction skips freeing the
  /// runs, leaking them in the exchange arena for the fuzz audit to
  /// catch.
  bool LeakOnDrop = false;

  DonatedGraph() = default;
  DonatedGraph(const DonatedGraph &) = delete;
  DonatedGraph &operator=(const DonatedGraph &) = delete;
  DonatedGraph(DonatedGraph &&O) noexcept { *this = std::move(O); }
  DonatedGraph &operator=(DonatedGraph &&O) noexcept {
    if (this != &O) {
      release();
      Domain = O.Domain;
      for (unsigned S = 0; S != NumSpaces; ++S)
        Runs[S] = std::move(O.Runs[S]);
      RootBits = O.RootBits;
      RootIsSymbol = O.RootIsSymbol;
      RootSymbolName = std::move(O.RootSymbolName);
      Fixups = std::move(O.Fixups);
      Bytes = O.Bytes;
      SeveredEdges = O.SeveredEdges;
      LeakOnDrop = O.LeakOnDrop;
      O.Domain = nullptr;
      for (unsigned S = 0; S != NumSpaces; ++S)
        O.Runs[S].clear();
      O.Fixups.clear();
      O.Bytes = 0;
    }
    return *this;
  }
  ~DonatedGraph() { release(); }

  bool empty() const {
    for (unsigned S = 0; S != NumSpaces; ++S)
      if (!Runs[S].empty())
        return false;
    return true;
  }

  size_t segmentCount() const {
    size_t N = 0;
    for (unsigned S = 0; S != NumSpaces; ++S)
      for (const SegmentRun &R : Runs[S])
        N += R.SegmentCount;
    return N;
  }

  /// Frees the runs back to the exchange arena (a dropped, never-adopted
  /// message). Adoption clears the run lists first, so an adopted
  /// graph's handle releases nothing.
  void release();
};

/// The process-wide read-only + donation exchange domain. Normally a
/// process has exactly one (process()); tests and the fuzzer construct
/// private instances so segment-ownership accounting is exact per run.
class SharedImmutableSpace {
public:
  /// Reserves \p TotalBytes of lazily-committed address space for the
  /// exchange arena.
  explicit SharedImmutableSpace(size_t TotalBytes = 256u * 1024 * 1024);

  SharedImmutableSpace(const SharedImmutableSpace &) = delete;
  SharedImmutableSpace &operator=(const SharedImmutableSpace &) = delete;

  /// The default process-wide instance every Heap binds to unless
  /// HeapConfig::Exchange names another.
  static SharedImmutableSpace &process();

  Arena &arena() { return Exchange; }
  const Arena &arena() const { return Exchange; }

  /// True if \p V points into the exchange arena (shared or donated).
  bool holds(Value V) const {
    return V.isHeapPointer() && Exchange.containsAddress(V.heapAddress());
  }

  //===------------------------------------------------------------------===//
  // Freeze-and-publish. Both entry points only read the source heap (no
  // safepoints), so raw source Values stay valid throughout.
  //===------------------------------------------------------------------===//

  /// Interns \p Name in the process-wide shared symbol table. Shared
  /// symbols are distinct objects from any shard's privately interned
  /// symbols (per-heap eq? identity is preserved by per-heap interning);
  /// they exist for compiled-code constants and other published
  /// structures that must be referenceable from every shard.
  Value internShared(std::string_view Name);

  /// Recursively copies \p V into shared immutable segments and returns
  /// the frozen copy. Supports strings, bytevectors, flonums, vectors,
  /// ordinary pairs (cycles and sharing preserved within one call), and
  /// symbols (routed through internShared). Strings are deduplicated by
  /// content. Already-shared values return themselves. Mutable kinds
  /// that cannot be meaningfully frozen (boxes, closures, weak pairs,
  /// guardians, ports) abort.
  Value freeze(Heap &H, Value V);

  //===------------------------------------------------------------------===//
  // Ownership accounting (fuzz audit, tests, telemetry).
  //===------------------------------------------------------------------===//

  /// In-use segments carrying every flag in \p FlagMask. O(total
  /// segments) scan; audit/test path only.
  size_t segmentsWithFlags(uint8_t FlagMask) const {
    size_t N = 0;
    for (size_t I = 0, E = Exchange.totalSegments(); I != E; ++I) {
      const SegmentInfo &Info = Exchange.infoAt(static_cast<uint32_t>(I));
      if (Info.inUse() && (Info.Flags & FlagMask) == FlagMask)
        ++N;
    }
    return N;
  }
  size_t donatedSegmentsInUse() const {
    return segmentsWithFlags(SegmentInfo::FlagDonated);
  }
  size_t sharedSegmentsInUse() const {
    return segmentsWithFlags(SegmentInfo::FlagShared);
  }

  /// Bytes currently published in shared immutable segments.
  size_t sharedBytes() const;

private:
  friend struct DonatedGraph;

  uintptr_t *allocateShared(SpaceKind Space, size_t Words);
  Value freezeRec(Heap &H, Value V,
                  std::unordered_map<uintptr_t, uintptr_t> &Memo);
  Value internSharedLocked(std::string_view Name);
  Value sharedStringLocked(std::string_view Contents);

  mutable std::mutex Mu;
  Arena Exchange;
  /// Bump contexts for shared-immutable publishing (guarded by Mu).
  SpaceContext SharedContexts[NumSpaces];
  /// name -> shared symbol bits.
  std::unordered_map<std::string, uintptr_t> SharedSymbols;
  /// contents -> shared string bits (freeze dedup).
  std::unordered_map<std::string, uintptr_t> SharedStrings;
};

} // namespace gengc

#endif // GENGC_HEAP_SHAREDIMMUTABLESPACE_H
