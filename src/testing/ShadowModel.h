//===- testing/ShadowModel.h - Non-moving reachability oracle -*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shadow heap model for model-differential testing (tools/gcfuzz).
/// The model mirrors every mutator operation the fuzzer performs against
/// the real Heap, but its objects never move: each is a small struct
/// addressed by a stable integer id. collect() then computes what the
/// paper's collector *must* do for a collection of generation G —
/// exact reachability from the roots plus every object in an older
/// generation (modeling remembered-set conservatism, floating garbage
/// included), the Section 4 guardian classification/salvage fixpoint in
/// entry order, Section 5 agents, weak-car breaking, weak symbol-table
/// reclamation, and the tenure/promotion schedule — and predicts the
/// collection's GcStats counters and the post-collection census.
///
/// The model is deliberately a *mirror of the specified algorithm*, not
/// of the implementation: it knows nothing about segments, forwarding
/// pointers, remembered sets, or sweep order. Agreement with the real
/// heap after every collection (checked by testing/TraceRunner.cpp) is
/// therefore evidence about the algorithm's observable behavior, not a
/// tautology.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_TESTING_SHADOWMODEL_H
#define GENGC_TESTING_SHADOWMODEL_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "gc/HeapConfig.h"
#include "gc/telemetry/Census.h"
#include "heap/Arena.h"
#include "object/Value.h"

namespace gengc {
namespace gcfuzz {

/// Stable id of a shadow object (index into ShadowModel::Objects).
using ObjId = uint32_t;
constexpr ObjId NoObj = ~0u;

/// Kinds the fuzzer allocates. A subset of the real heap's kinds; each
/// maps onto exactly one (CensusKind, SpaceKind) pair.
enum class SKind : uint8_t {
  Pair = 0,
  WeakPair,
  Vector,
  String,
  Symbol,
  Box,
  Flonum,
  Bytevector,
  Record,
};

/// A model value: either the raw bits of an immediate/fixnum Value, or
/// a shadow object id. Heap addresses never appear here — that is the
/// point.
struct SVal {
  ObjId Id = NoObj;
  uintptr_t Imm = 0;
  bool IsId = false;

  static SVal immediate(Value V) {
    SVal S;
    S.Imm = V.bits();
    return S;
  }
  static SVal object(ObjId Id) {
    SVal S;
    S.Id = Id;
    S.IsId = true;
    return S;
  }

  bool operator==(const SVal &O) const {
    return IsId == O.IsId && (IsId ? Id == O.Id : Imm == O.Imm);
  }
  bool operator!=(const SVal &O) const { return !(*this == O); }
};

/// One shadow object.
struct SObj {
  SKind Kind = SKind::Pair;
  uint8_t Gen = 0;
  uint8_t Age = 0;
  /// Request-scope depth (0 = the generational ladder). Objects born
  /// while a scope is open carry the innermost depth, exactly like the
  /// real allocator's segment tag; closeScope() rewrites survivors to
  /// the enclosing depth.
  uint8_t Scope = 0;
  bool Alive = true;
  /// Part of a guardian tconc queue (header, sentinel, or collector-
  /// appended cell). Excluded from the fuzzer's set-car!/set-cdr!
  /// targets so the tconc protocol invariants hold.
  bool TconcPart = false;
  /// The tconc's header pair specifically (a valid retrieve target).
  bool TconcHeader = false;
  /// Element count (vector/record) or byte count (string/bytevector).
  uint32_t Length = 0;
  /// Tagged fields: {car, cdr} for pairs, payload slots otherwise.
  std::vector<SVal> Fields;
  /// String contents.
  std::string Data;
  /// Flonum payload, bit-exact.
  uint64_t FloBits = 0;
};

/// A protected-list entry (mirrors Heap::ProtectedEntry).
struct SEntry {
  SVal Obj, Tconc, Agent;
};

/// The GcStats counters the model predicts exactly. Counters tied to
/// implementation details (RootsScanned, WeakPairsExamined,
/// SegmentsFreed, timings) are deliberately absent.
struct ModelGcStats {
  uint64_t ObjectsCopied = 0;
  uint64_t BytesCopied = 0;
  uint64_t ObjectsPromoted = 0;
  uint64_t BytesInFromSpace = 0;
  uint64_t ProtectedEntriesVisited = 0;
  uint64_t GuardianObjectsSaved = 0;
  uint64_t ProtectedEntriesKept = 0;
  uint64_t GuardianEntriesDropped = 0;
  uint64_t GuardianLoopIterations = 0;
  uint64_t WeakPointersBroken = 0;
  uint64_t SymbolsDropped = 0;
};

/// The ScopeCloseStats counters the model predicts exactly
/// (SegmentsFreed, WeakPairsExamined, and timings are implementation
/// detail and deliberately absent).
struct ModelScopeStats {
  uint64_t ObjectsEvacuated = 0;
  uint64_t BytesEvacuated = 0;
  uint64_t BytesInScope = 0;
  uint64_t ProtectedEntriesVisited = 0;
  uint64_t GuardianObjectsSaved = 0;
  uint64_t ProtectedEntriesKept = 0;
  uint64_t GuardianEntriesDropped = 0;
  uint64_t GuardianLoopIterations = 0;
  uint64_t WeakPointersBroken = 0;
  uint64_t SymbolsDropped = 0;
};

/// The Heap::census() numbers the model predicts (SegmentCount is
/// allocator policy, not semantics, and is not predicted).
struct ModelCensus {
  uint64_t ObjectCount[MaxGenerations][NumSpaces] = {};
  uint64_t UsedBytes[MaxGenerations][NumSpaces] = {};
  uint64_t KindCounts[NumCensusKinds] = {};
  uint64_t KindBytes[NumCensusKinds] = {};
};

class ShadowModel {
public:
  explicit ShadowModel(const HeapConfig &Cfg)
      : Generations(Cfg.Generations), TenureCopies(Cfg.TenureCopies),
        WeakSymbolTable(Cfg.WeakSymbolTable), Protected(Cfg.Generations) {}

  //===------------------------------------------------------------------===//
  // Mutator mirror. Each returns the new object's id; new objects are
  // born in generation 0, age 0, exactly like the real allocator.
  //===------------------------------------------------------------------===//

  ObjId cons(SVal Car, SVal Cdr);
  ObjId weakCons(SVal Car, SVal Cdr);
  ObjId makeVector(uint32_t Length, SVal Fill);
  ObjId makeString(const std::string &Data);
  ObjId makeBytevector(uint32_t Length);
  ObjId makeFlonum(uint64_t FloBits);
  ObjId makeBox(SVal V);
  ObjId makeRecord(SVal Tag, uint32_t FieldCount, SVal Fill);
  /// Returns the interned symbol (allocating a string + symbol when the
  /// name is absent, mirroring Heap::intern's order).
  SVal intern(const std::string &Name);
  /// (let ([z (cons #f '())]) (cons z z)); returns the header's id.
  ObjId makeGuardianTconc();

  /// Raw field store (car == field 0, cdr == field 1 for pairs). The
  /// model needs no write barrier: collect() treats every old object as
  /// a root, which is exactly what the barrier + remembered sets buy
  /// the real collector.
  void setField(ObjId Obj, uint32_t Index, SVal V);

  /// Mirrors Heap::protectedListFor: the entry parks on the protected
  /// list of the deepest open scope any participant lives in, else the
  /// generation-0 list.
  void guardianProtect(ObjId Tconc, SVal Obj, SVal Agent);
  /// Figure 4 retrieve, including clearing the vacated cell.
  SVal guardianRetrieve(ObjId Tconc);
  bool guardianHasPending(ObjId Tconc) const;

  //===------------------------------------------------------------------===//
  // Request scopes (DESIGN.md §13).
  //===------------------------------------------------------------------===//

  void openScope();

  struct ScopeCloseOutcome {
    ModelScopeStats Stats;
    /// Indexed by pre-close id: was the object evacuated into the
    /// enclosing extent? Only meaningful for members of the closed
    /// scope; everything else is 0. Ids >= PreCount were born during
    /// the close (guardian tconc cells).
    std::vector<char> Copied;
    size_t PreCount = 0;
    unsigned Depth = 0;
  };

  /// Closes the innermost scope: members reachable from outside it
  /// (roots, any live non-member's strong fields — the escape sets'
  /// conservatism — the strong symbol table, and the Section 4
  /// guardian fixpoint over the scope's own protected list) graduate
  /// to the enclosing depth; the rest die untraced.
  ScopeCloseOutcome closeScope();

  //===------------------------------------------------------------------===//
  // Collection.
  //===------------------------------------------------------------------===//

  struct CollectOutcome {
    ModelGcStats Stats;
    /// Indexed by pre-collection id: was the object copied (live and in
    /// a collected generation)? Ids >= PreCount were born during the
    /// collection (guardian tconc cells).
    std::vector<char> Copied;
    size_t PreCount = 0;
    unsigned Collected = 0;
    unsigned Target = 0;
  };

  /// Runs the model collection for a collection of generations
  /// 0..RequestedGeneration (clamped), updating liveness, generations,
  /// guardians, weak pairs, and the symbol table.
  CollectOutcome collect(unsigned RequestedGeneration);

  /// Predicts Heap::census() from the current alive set.
  ModelCensus censusExpect() const;

  //===------------------------------------------------------------------===//
  // Segment donation (DESIGN.md §14). The model mirror of
  // Heap::donateGraph / Heap::adoptDonatedGraph: a GraphSnapshot is a
  // heap-independent structural copy of a donated graph (the shadow of
  // a DonatedGraph handle), and adoptGraph instantiates it as fresh
  // objects in generation 0, exactly like adoption retags the donated
  // segments young.
  //===------------------------------------------------------------------===//

  /// One value inside a snapshot: a raw immediate, an index into
  /// GraphSnapshot::Nodes, or a symbol carried by name (symbols travel
  /// as fixups, never as copies — mirroring DonatedSymbolFixup).
  struct SnapVal {
    enum class K : uint8_t { Imm, Node, Symbol };
    K Kind = K::Imm;
    uintptr_t Imm = 0;
    uint32_t Node = 0;
    std::string Name;
  };

  /// One copied object. Guardian/tconc roles deliberately do not
  /// travel: donation copies payload bits only, so an adopted copy of
  /// a tconc cell is an ordinary pair.
  struct SnapNode {
    SKind Kind = SKind::Pair;
    uint32_t Length = 0;
    std::vector<SnapVal> Fields;
    std::string Data;
    uint64_t FloBits = 0;
  };

  struct GraphSnapshot {
    SnapVal Root;
    std::vector<SnapNode> Nodes;
    /// Words the donation copy-out bump-allocates — must equal
    /// DonatedGraph::Bytes / 8 (the runner's size cross-check).
    uint64_t Words = 0;
  };

  /// Snapshots the graph rooted at \p Root: weak cars traversed
  /// strongly, symbols recorded by name and not traversed, sharing and
  /// cycles preserved by node index — the same walk donateGraph does.
  GraphSnapshot snapshotGraph(SVal Root) const;

  /// Instantiates \p G as fresh objects born in generation 0, age 0, at
  /// scope depth 0 (adopted segments join generation 0), interning each
  /// symbol fixup by name. Returns the adopted root.
  SVal adoptGraph(const GraphSnapshot &G);

  const SObj &obj(ObjId Id) const { return Objects[Id]; }
  bool alive(ObjId Id) const { return Objects[Id].Alive; }

  /// Words the real allocator reserves for this object
  /// (objectAllocWords; pairs take two words).
  static size_t allocWords(const SObj &O);

  unsigned Generations;
  unsigned TenureCopies;
  bool WeakSymbolTable;

  std::vector<SObj> Objects;
  /// Mirrors the runner's RootVector of explicitly pushed roots.
  std::vector<SVal> RootStack;
  /// Mirrors the operands rooted for the duration of one trace op.
  std::vector<SVal> Scratch;
  /// Protected lists, one per generation (Section 4).
  std::vector<std::vector<SEntry>> Protected;
  /// Per-scope protected lists, one per open scope (index depth - 1).
  std::vector<std::vector<SEntry>> ScopeProtected;
  /// Current open-scope depth (0 = none).
  unsigned ScopeDepth = 0;
  /// Intern table: name -> symbol id.
  std::unordered_map<std::string, ObjId> Symbols;

private:
  ObjId newObject(SKind Kind);
  unsigned scopeOf(const SVal &V) const;
};

} // namespace gcfuzz
} // namespace gengc

#endif // GENGC_TESTING_SHADOWMODEL_H
