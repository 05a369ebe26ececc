//===- testing/TraceRunner.cpp - Differential trace execution -------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "testing/TraceRunner.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/telemetry/Census.h"
#include "heap/SharedImmutableSpace.h"
#include "object/Layout.h"
#include "testing/ShadowModel.h"

using namespace gengc;
using namespace gengc::gcfuzz;

namespace {

/// Thrown by any cross-check; caught at the top of the run. The heap is
/// never touched again after a divergence (collector bookkeeping flags
/// may be mid-flight when the exception unwinds a safepoint).
struct Divergence {
  std::string Message;
};

/// One trace execution: a real Heap and a ShadowModel advanced in
/// lockstep, cross-checked from the post-GC hook after every
/// collection.
class Session {
public:
  explicit Session(const HeapConfig &Cfg)
      : DonationExchange(8u * 1024 * 1024),
        H(withExchange(Cfg, &DonationExchange)), M(H.config()),
        RootStackReal(H), ScratchReal(H) {
    for (size_t I = 0; I != NumSlots; ++I) {
      SlotId[I] = NoObj;
      SlotBits[I] = 0;
    }
    H.setForwardWitness(&Session::witnessThunk, this);
    H.addPostGcHook(
        [this](Heap &, const GcStats &S) { onCollection(S); });
    H.setScopeCloseHook(
        [this](Heap &, const ScopeCloseStats &S) { onScopeClose(S); });
  }

  RunResult run(const Trace &T) {
    RunResult R;
    try {
      for (size_t I = 0; I != T.Ops.size(); ++I) {
        CurOp = I;
        applyOp(T.Ops[I]);
      }
      // End-of-trace flush: close any scopes the trace left open (each
      // close is itself a cross-checked evacuation), then a full
      // collection so the final heap state is checked even when the
      // trace's own collections came early.
      CurOp = T.Ops.size();
      while (H.scopeDepth() != 0)
        H.closeScope();
      // Drop any still-in-flight donated graphs (freeing their exchange
      // segments — or leaking them under the injected fault, which the
      // audit then catches) before the final full collection.
      if (!InFlight.empty()) {
        InFlight.clear();
        auditDonations();
      }
      H.collectFull();
    } catch (const Divergence &D) {
      R.Diverged = true;
      R.Message = D.Message;
      R.OpIndex = CurOp;
    }
    R.Collections = Collections;
    return R;
  }

private:
  static constexpr size_t NumSlots = 24;
  static constexpr size_t RootStackMax = 40;
  /// Scope nesting the fuzzer exercises (the config's MaxScopeDepth is
  /// an assertion bound, not a target).
  static constexpr unsigned ScopeNestCap = 3;
  /// Donated graphs parked between donate-send and donate-receive/drop.
  static constexpr size_t MaxInFlight = 4;

  /// A private exchange arena per session: donated segments never leak
  /// across traces, so the ownership audit can demand exact counts.
  /// Declared before H — the config handed to the Heap points at it.
  SharedImmutableSpace DonationExchange;
  Heap H;
  ShadowModel M;
  /// Mirror of M.RootStack (explicitly pushed long-lived roots).
  RootVector RootStackReal;
  /// Mirror of M.Scratch (operands rooted for the duration of one op).
  RootVector ScratchReal;

  /// Unrooted handles: the differential core. SlotBits deliberately
  /// holds raw bits, not Roots — the witness map proves the collector
  /// moved or reclaimed each one exactly as the model requires.
  ObjId SlotId[NumSlots];
  uintptr_t SlotBits[NumSlots];

  /// Old-bits -> new-bits pairs from the forwarding witness, one
  /// collection's worth.
  std::unordered_map<uintptr_t, uintptr_t> Witness;

  /// One donated graph in flight: the real handle plus the model's
  /// structural snapshot, taken at the same instant. Receive replays
  /// the snapshot into the model while the heap adopts the handle.
  struct InFlightDonation {
    DonatedGraph G;
    ShadowModel::GraphSnapshot Snap;
  };
  std::vector<InFlightDonation> InFlight;

  uint64_t Collections = 0;
  size_t CurOp = 0;

  static HeapConfig withExchange(HeapConfig Cfg,
                                 SharedImmutableSpace *X) {
    Cfg.Exchange = X;
    return Cfg;
  }

  static void witnessThunk(void *Ctx, uintptr_t OldBits,
                           uintptr_t NewBits) {
    static_cast<Session *>(Ctx)->Witness.emplace(OldBits, NewBits);
  }

  [[noreturn]] void diverge(const std::string &What) {
    throw Divergence{"op " + std::to_string(CurOp) + ", collection " +
                     std::to_string(Collections) + ": " + What};
  }

  //===------------------------------------------------------------------===//
  // Post-collection cross-check.
  //===------------------------------------------------------------------===//

  void onCollection(const GcStats &S) {
    ++Collections;
    ShadowModel::CollectOutcome Out = M.collect(S.CollectedGeneration);
    if (Out.Target != S.TargetGeneration)
      diverge("target generation: model " + std::to_string(Out.Target) +
              ", heap " + std::to_string(S.TargetGeneration));
    syncSlots(Out.Copied, Out.PreCount);
    checkStats(S, Out.Stats);
    checkGraph();
    checkCensus();
    auditDonations();
    H.verifyHeap();
    Witness.clear();
  }

  /// The donation ownership map: every segment the exchange arena has
  /// handed out must be accounted for by exactly one owner — an
  /// in-flight DonatedGraph handle or this heap's adopted runs. Runs
  /// after every donation op and every collection (each collection
  /// evacuates adopted runs and returns their segments, so both sides
  /// of the equation drop together). A graph leaked on drop
  /// (GcFaultInjection::LeakDonatedSegment) leaves the exchange count
  /// high with no owner, which this catches immediately.
  void auditDonations() {
    size_t Expect = H.adoptedSegments();
    for (const InFlightDonation &D : InFlight)
      Expect += D.G.segmentCount();
    const size_t Actual = DonationExchange.donatedSegmentsInUse();
    if (Actual != Expect)
      diverge("donation ownership: exchange arena holds " +
              std::to_string(Actual) +
              " donated segments, but in-flight handles + adopted runs "
              "account for " +
              std::to_string(Expect) + " (segment leak or double-free)");
  }

  /// The scope-close analogue of onCollection: the model predicts the
  /// evacuation, the witness proves per-slot graduation/reclamation,
  /// and the same graph/census/verify battery runs on what remains.
  void onScopeClose(const ScopeCloseStats &S) {
    ShadowModel::ScopeCloseOutcome Out = M.closeScope();
    if (Out.Depth != S.Depth)
      diverge("scope depth: model " + std::to_string(Out.Depth) +
              ", heap " + std::to_string(S.Depth));
    syncSlots(Out.Copied, Out.PreCount);
    checkScopeStats(S, Out.Stats);
    checkGraph();
    checkCensus();
    H.verifyHeap();
    Witness.clear();
  }

  /// Applies the witness map to the unrooted slots, demanding exact
  /// agreement with model liveness in both directions. Shared by
  /// collections and scope closes: Copied marks the pre-ids the model
  /// says moved this cycle, and anything else must not have moved.
  void syncSlots(const std::vector<char> &Copied, size_t PreCount) {
    for (size_t I = 0; I != NumSlots; ++I) {
      if (SlotId[I] == NoObj)
        continue;
      const ObjId Id = SlotId[I];
      auto It = Witness.find(SlotBits[I]);
      if (!M.alive(Id)) {
        if (It != Witness.end())
          diverge("slot " + std::to_string(I) +
                  ": collector copied an object the model reclaimed");
        SlotId[I] = NoObj;
        SlotBits[I] = 0;
      } else if (Id < PreCount && Copied[Id]) {
        if (It == Witness.end())
          diverge("slot " + std::to_string(I) +
                  ": model-live object in a collected extent was "
                  "not copied (object lost)");
        SlotBits[I] = It->second;
      } else {
        if (It != Witness.end())
          diverge("slot " + std::to_string(I) +
                  ": object outside the collected extent moved");
      }
    }
  }

  void checkStats(const GcStats &S, const ModelGcStats &P) {
    const struct {
      const char *Name;
      uint64_t Model, Real;
    } Rows[] = {
        {"ObjectsCopied", P.ObjectsCopied, S.ObjectsCopied},
        {"BytesCopied", P.BytesCopied, S.BytesCopied},
        {"ObjectsPromoted", P.ObjectsPromoted, S.ObjectsPromoted},
        {"BytesInFromSpace", P.BytesInFromSpace, S.BytesInFromSpace},
        {"ProtectedEntriesVisited", P.ProtectedEntriesVisited,
         S.ProtectedEntriesVisited},
        {"GuardianObjectsSaved", P.GuardianObjectsSaved,
         S.GuardianObjectsSaved},
        {"ProtectedEntriesKept", P.ProtectedEntriesKept,
         S.ProtectedEntriesKept},
        {"GuardianEntriesDropped", P.GuardianEntriesDropped,
         S.GuardianEntriesDropped},
        {"GuardianLoopIterations", P.GuardianLoopIterations,
         S.GuardianLoopIterations},
        {"WeakPointersBroken", P.WeakPointersBroken,
         S.WeakPointersBroken},
        {"SymbolsDropped", P.SymbolsDropped, S.SymbolsDropped},
    };
    for (const auto &R : Rows)
      if (R.Model != R.Real)
        diverge(std::string("stats.") + R.Name + ": model " +
                std::to_string(R.Model) + ", heap " +
                std::to_string(R.Real));
  }

  void checkScopeStats(const ScopeCloseStats &S,
                       const ModelScopeStats &P) {
    const struct {
      const char *Name;
      uint64_t Model, Real;
    } Rows[] = {
        {"ObjectsEvacuated", P.ObjectsEvacuated, S.ObjectsEvacuated},
        {"BytesEvacuated", P.BytesEvacuated, S.BytesEvacuated},
        {"BytesInScope", P.BytesInScope, S.BytesInScope},
        {"ProtectedEntriesVisited", P.ProtectedEntriesVisited,
         S.ProtectedEntriesVisited},
        {"GuardianObjectsSaved", P.GuardianObjectsSaved,
         S.GuardianObjectsSaved},
        {"ProtectedEntriesKept", P.ProtectedEntriesKept,
         S.ProtectedEntriesKept},
        {"GuardianEntriesDropped", P.GuardianEntriesDropped,
         S.GuardianEntriesDropped},
        {"GuardianLoopIterations", P.GuardianLoopIterations,
         S.GuardianLoopIterations},
        {"WeakPointersBroken", P.WeakPointersBroken,
         S.WeakPointersBroken},
        {"SymbolsDropped", P.SymbolsDropped, S.SymbolsDropped},
    };
    for (const auto &R : Rows)
      if (R.Model != R.Real)
        diverge(std::string("scope-stats.") + R.Name + ": model " +
                std::to_string(R.Model) + ", heap " +
                std::to_string(R.Real));
  }

  /// Full value-graph isomorphism from every root the harness holds: a
  /// bijection between shadow ids and heap addresses with per-object
  /// structure checks. Covers weak-pair break sets (both directions),
  /// guardian tconc contents and order, and eq?-identity.
  void checkGraph() {
    std::unordered_map<ObjId, uintptr_t> Fwd;
    std::unordered_map<uintptr_t, ObjId> Bwd;
    std::vector<ObjId> Work;

    auto edge = [&](const SVal &MV, Value RV, const char *Where) {
      if (!MV.IsId) {
        if (RV.bits() != MV.Imm)
          diverge(std::string("walk at ") + Where +
                  ": immediate mismatch");
        return;
      }
      if (!RV.isHeapPointer())
        diverge(std::string("walk at ") + Where +
                ": model object, heap non-pointer");
      auto F = Fwd.find(MV.Id);
      if (F != Fwd.end()) {
        if (F->second != RV.bits())
          diverge(std::string("walk at ") + Where +
                  ": identity split (one model object, two heap "
                  "addresses)");
        return;
      }
      auto B = Bwd.find(RV.bits());
      if (B != Bwd.end())
        diverge(std::string("walk at ") + Where +
                ": identity merge (two model objects, one heap "
                "address)");
      Fwd.emplace(MV.Id, RV.bits());
      Bwd.emplace(RV.bits(), MV.Id);
      Work.push_back(MV.Id);
    };

    for (size_t I = 0; I != NumSlots; ++I)
      if (SlotId[I] != NoObj)
        edge(SVal::object(SlotId[I]), Value::fromBits(SlotBits[I]),
             "slot");
    if (RootStackReal.size() != M.RootStack.size())
      diverge("root stack size mismatch");
    for (size_t I = 0; I != M.RootStack.size(); ++I)
      edge(M.RootStack[I], RootStackReal[I], "root-stack");
    if (ScratchReal.size() != M.Scratch.size())
      diverge("scratch root size mismatch");
    for (size_t I = 0; I != M.Scratch.size(); ++I)
      edge(M.Scratch[I], ScratchReal[I], "scratch");

    while (!Work.empty()) {
      const ObjId Id = Work.back();
      Work.pop_back();
      checkObject(Id, Value::fromBits(Fwd[Id]), edge);
    }
  }

  template <typename EdgeFn>
  void checkObject(ObjId Id, Value RV, EdgeFn &edge) {
    const SObj &O = M.obj(Id);
    if (!O.Alive)
      diverge("walk reached a model-dead object");
    if (H.generationOf(RV) != O.Gen)
      diverge("generation mismatch: model " + std::to_string(O.Gen) +
              ", heap " + std::to_string(H.generationOf(RV)));
    if (H.scopeDepthOf(RV) != O.Scope)
      diverge("scope depth mismatch: model " + std::to_string(O.Scope) +
              ", heap " + std::to_string(H.scopeDepthOf(RV)));
    switch (O.Kind) {
    case SKind::Pair:
      if (!RV.isPair() || H.isWeakPair(RV))
        diverge("expected ordinary pair");
      edge(O.Fields[0], pairCar(RV), "car");
      edge(O.Fields[1], pairCdr(RV), "cdr");
      return;
    case SKind::WeakPair:
      if (!RV.isPair() || !H.isWeakPair(RV))
        diverge("expected weak pair");
      edge(O.Fields[0], pairCar(RV), "weak-car");
      edge(O.Fields[1], pairCdr(RV), "weak-cdr");
      return;
    case SKind::Vector:
      if (!isVector(RV) || objectLength(RV) != O.Length)
        diverge("expected vector of " + std::to_string(O.Length));
      for (size_t I = 0; I != O.Length; ++I)
        edge(O.Fields[I], objectField(RV, I), "vector-slot");
      return;
    case SKind::Record:
      if (!isRecord(RV) || objectLength(RV) != O.Length)
        diverge("expected record of " + std::to_string(O.Length));
      for (size_t I = 0; I != O.Length; ++I)
        edge(O.Fields[I], objectField(RV, I), "record-slot");
      return;
    case SKind::Box:
      if (!isBox(RV))
        diverge("expected box");
      edge(O.Fields[0], objectField(RV, 0), "box-slot");
      return;
    case SKind::Symbol:
      if (!isSymbol(RV))
        diverge("expected symbol");
      edge(O.Fields[SymName], objectField(RV, SymName), "sym-name");
      edge(O.Fields[SymHash], objectField(RV, SymHash), "sym-hash");
      edge(O.Fields[SymPlist], objectField(RV, SymPlist), "sym-plist");
      return;
    case SKind::String:
      if (!isString(RV) || objectLength(RV) != O.Length)
        diverge("expected string of " + std::to_string(O.Length));
      if (O.Length != 0 &&
          std::memcmp(stringData(RV), O.Data.data(), O.Length) != 0)
        diverge("string contents mismatch");
      return;
    case SKind::Bytevector: {
      if (!isBytevector(RV) || objectLength(RV) != O.Length)
        diverge("expected bytevector of " + std::to_string(O.Length));
      const uint8_t *Bytes = bytevectorData(RV);
      for (size_t I = 0; I != O.Length; ++I)
        if (Bytes[I] != 0)
          diverge("bytevector contents mismatch");
      return;
    }
    case SKind::Flonum: {
      if (!isFlonum(RV))
        diverge("expected flonum");
      uint64_t Bits;
      std::memcpy(&Bits, RV.objectHeader() + 1, sizeof(Bits));
      if (Bits != O.FloBits)
        diverge("flonum payload mismatch");
      return;
    }
    }
    diverge("bad shadow kind");
  }

  void checkCensus() {
    const HeapCensus C = H.census();
    const ModelCensus E = M.censusExpect();
    for (unsigned G = 0; G != M.Generations; ++G)
      for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
        const HeapCensus::Cell &Cell = C.Cells[G][Sp];
        if (Cell.ObjectCount != E.ObjectCount[G][Sp] ||
            Cell.UsedBytes != E.UsedBytes[G][Sp])
          diverge("census cell gen " + std::to_string(G) + " space " +
                  std::to_string(Sp) + ": model " +
                  std::to_string(E.ObjectCount[G][Sp]) + " objs/" +
                  std::to_string(E.UsedBytes[G][Sp]) + " bytes, heap " +
                  std::to_string(Cell.ObjectCount) + " objs/" +
                  std::to_string(Cell.UsedBytes) + " bytes");
      }
    for (unsigned K = 0; K != NumCensusKinds; ++K)
      if (C.KindCounts[K] != E.KindCounts[K] ||
          C.KindBytes[K] != E.KindBytes[K])
        diverge(std::string("census kind ") +
                censusKindName(static_cast<CensusKind>(K)) + ": model " +
                std::to_string(E.KindCounts[K]) + "/" +
                std::to_string(E.KindBytes[K]) + ", heap " +
                std::to_string(C.KindCounts[K]) + "/" +
                std::to_string(C.KindBytes[K]));
  }

  //===------------------------------------------------------------------===//
  // Op interpretation.
  //===------------------------------------------------------------------===//

  template <typename Pred> int findSlot(uint32_t Start, Pred P) {
    for (size_t K = 0; K != NumSlots; ++K) {
      const size_t I = (Start + K) % NumSlots;
      if (SlotId[I] != NoObj && P(M.obj(SlotId[I])))
        return static_cast<int>(I);
    }
    return -1;
  }

  /// Resolves an operand word to a (model, real) value pair: odd words
  /// are immediates from a small palette, even words scan the slots.
  std::pair<SVal, Value> valueOperand(uint32_t X) {
    if (X & 1) {
      Value V;
      switch ((X >> 1) % 5) {
      case 0:
        V = Value::fixnum(static_cast<intptr_t>((X >> 3) % 100000));
        break;
      case 1:
        V = Value::falseV();
        break;
      case 2:
        V = Value::nil();
        break;
      case 3:
        V = Value::trueV();
        break;
      default:
        V = Value::character('a' + (X >> 3) % 26);
        break;
      }
      return {SVal::immediate(V), V};
    }
    const int S = findSlot(X >> 1, [](const SObj &) { return true; });
    if (S < 0) {
      const Value V = Value::fixnum(7);
      return {SVal::immediate(V), V};
    }
    return {SVal::object(SlotId[S]), Value::fromBits(SlotBits[S])};
  }

  /// Roots heap-pointer operands on both sides for the duration of one
  /// allocating op (mirroring the Roots the real entry points create).
  void pushOperand(const std::pair<SVal, Value> &V) {
    if (!V.first.IsId)
      return;
    ScratchReal.push_back(V.second);
    M.Scratch.push_back(V.first);
  }
  void clearOperands() {
    ScratchReal.clear();
    M.Scratch.clear();
  }

  void storeResult(uint32_t Dst, ObjId Id, Value RV) {
    const size_t I = Dst % NumSlots;
    SlotId[I] = Id;
    SlotBits[I] = RV.bits();
  }

  /// eq?-consistency of a (model id, heap value) pairing against every
  /// slot.
  void checkIdentity(ObjId Id, Value RV) {
    for (size_t I = 0; I != NumSlots; ++I) {
      if (SlotId[I] == NoObj)
        continue;
      if (SlotId[I] == Id && SlotBits[I] != RV.bits())
        diverge("eq? violation: one model object at two heap addresses");
      if (SlotId[I] != Id && SlotBits[I] == RV.bits())
        diverge("eq? violation: two model objects at one heap address");
    }
  }

  void applyOp(const TraceOp &O) {
    switch (static_cast<Op>(O.Code)) {
    case Op::Cons:
    case Op::WeakCons: {
      const bool Weak = static_cast<Op>(O.Code) == Op::WeakCons;
      auto Car = valueOperand(O.A);
      auto Cdr = valueOperand(O.B);
      pushOperand(Car);
      pushOperand(Cdr);
      const Value RV = Weak ? H.weakCons(Car.second, Cdr.second)
                            : H.cons(Car.second, Cdr.second);
      clearOperands();
      storeResult(O.C,
                  Weak ? M.weakCons(Car.first, Cdr.first)
                       : M.cons(Car.first, Cdr.first),
                  RV);
      return;
    }
    case Op::MakeVector:
    case Op::MakeLargeVector: {
      const uint32_t Len = static_cast<Op>(O.Code) == Op::MakeVector
                               ? O.A % 8
                               : 600 + O.A % 900;
      auto Fill = valueOperand(O.B);
      pushOperand(Fill);
      const Value RV = H.makeVector(Len, Fill.second);
      clearOperands();
      storeResult(O.C, M.makeVector(Len, Fill.first), RV);
      return;
    }
    case Op::MakeString: {
      std::string Data;
      const uint32_t Len = O.A % 48;
      for (uint32_t I = 0; I != Len; ++I)
        Data.push_back(
            static_cast<char>('a' + (O.A + I * 7 + O.B) % 26));
      const Value RV = H.makeString(Data);
      storeResult(O.C, M.makeString(Data), RV);
      return;
    }
    case Op::MakeBytevector: {
      const uint32_t Len = O.A % 64;
      const Value RV = H.makeBytevector(Len);
      storeResult(O.C, M.makeBytevector(Len), RV);
      return;
    }
    case Op::MakeFlonum: {
      const double D =
          static_cast<double>(O.A) * 0.4375 - static_cast<double>(O.B % 977);
      uint64_t Bits;
      std::memcpy(&Bits, &D, sizeof(Bits));
      const Value RV = H.makeFlonum(D);
      storeResult(O.C, M.makeFlonum(Bits), RV);
      return;
    }
    case Op::MakeBox: {
      auto V = valueOperand(O.A);
      pushOperand(V);
      const Value RV = H.makeBox(V.second);
      clearOperands();
      storeResult(O.C, M.makeBox(V.first), RV);
      return;
    }
    case Op::MakeRecord: {
      const uint32_t Fields = 1 + (O.A & 3);
      auto Tag = valueOperand(O.A >> 2);
      auto Fill = valueOperand(O.B);
      pushOperand(Tag);
      pushOperand(Fill);
      const Value RV = H.makeRecord(Tag.second, Fields, Fill.second);
      clearOperands();
      storeResult(O.C, M.makeRecord(Tag.first, Fields, Fill.first), RV);
      return;
    }
    case Op::Intern: {
      const std::string Name = "sym-" + std::to_string(O.A % 12);
      const Value RV = H.intern(Name);
      const SVal MV = M.intern(Name);
      if (!isSymbol(RV))
        diverge("intern returned a non-symbol");
      checkIdentity(MV.Id, RV);
      storeResult(O.C, MV.Id, RV);
      return;
    }
    case Op::SetCar:
    case Op::SetCdr: {
      const bool IsCar = static_cast<Op>(O.Code) == Op::SetCar;
      const int S = findSlot(O.A, [](const SObj &X) {
        return (X.Kind == SKind::Pair || X.Kind == SKind::WeakPair) &&
               !X.TconcPart;
      });
      if (S < 0)
        return;
      auto V = valueOperand(O.B);
      if (IsCar)
        H.setCar(Value::fromBits(SlotBits[S]), V.second);
      else
        H.setCdr(Value::fromBits(SlotBits[S]), V.second);
      M.setField(SlotId[S], IsCar ? 0 : 1, V.first);
      return;
    }
    case Op::VectorSet: {
      const int S = findSlot(O.A, [](const SObj &X) {
        return X.Kind == SKind::Vector && X.Length >= 1;
      });
      if (S < 0)
        return;
      const uint32_t Index = O.B % M.obj(SlotId[S]).Length;
      auto V = valueOperand(O.C);
      H.vectorSet(Value::fromBits(SlotBits[S]), Index, V.second);
      M.setField(SlotId[S], Index, V.first);
      return;
    }
    case Op::BoxSet: {
      const int S = findSlot(
          O.A, [](const SObj &X) { return X.Kind == SKind::Box; });
      if (S < 0)
        return;
      auto V = valueOperand(O.B);
      H.boxSet(Value::fromBits(SlotBits[S]), V.second);
      M.setField(SlotId[S], 0, V.first);
      return;
    }
    case Op::RecordSet: {
      const int S = findSlot(
          O.A, [](const SObj &X) { return X.Kind == SKind::Record; });
      if (S < 0)
        return;
      const uint32_t Index = O.B % M.obj(SlotId[S]).Length;
      auto V = valueOperand(O.C);
      H.recordSet(Value::fromBits(SlotBits[S]), Index, V.second);
      M.setField(SlotId[S], Index, V.first);
      return;
    }
    case Op::RootPush: {
      const int S = findSlot(O.A, [](const SObj &) { return true; });
      if (S < 0 || RootStackReal.size() >= RootStackMax)
        return;
      RootStackReal.push_back(Value::fromBits(SlotBits[S]));
      M.RootStack.push_back(SVal::object(SlotId[S]));
      return;
    }
    case Op::RootPop:
      if (!RootStackReal.empty()) {
        RootStackReal.pop_back();
        M.RootStack.pop_back();
      }
      return;
    case Op::DropSlot: {
      const size_t I = O.A % NumSlots;
      SlotId[I] = NoObj;
      SlotBits[I] = 0;
      return;
    }
    case Op::DupSlot: {
      const int S = findSlot(O.A, [](const SObj &) { return true; });
      if (S < 0)
        return;
      const size_t Dst = O.C % NumSlots;
      SlotId[Dst] = SlotId[S];
      SlotBits[Dst] = SlotBits[S];
      return;
    }
    case Op::GuardianNew: {
      const Value RV = H.makeGuardianTconc();
      storeResult(O.C, M.makeGuardianTconc(), RV);
      return;
    }
    case Op::Guard:
    case Op::GuardWithAgent: {
      const int TS = findSlot(
          O.A, [](const SObj &X) { return X.TconcHeader; });
      const int OS = findSlot(O.B, [](const SObj &) { return true; });
      if (TS < 0 || OS < 0)
        return;
      const SVal ObjV = SVal::object(SlotId[OS]);
      if (static_cast<Op>(O.Code) == Op::Guard) {
        H.guardianProtect(Value::fromBits(SlotBits[TS]),
                          Value::fromBits(SlotBits[OS]));
        M.guardianProtect(SlotId[TS], ObjV, ObjV);
      } else {
        auto Agent = valueOperand(O.C);
        H.guardianProtectWithAgent(Value::fromBits(SlotBits[TS]),
                                   Value::fromBits(SlotBits[OS]),
                                   Agent.second);
        M.guardianProtect(SlotId[TS], ObjV, Agent.first);
      }
      return;
    }
    case Op::Retrieve: {
      const int TS = findSlot(
          O.A, [](const SObj &X) { return X.TconcHeader; });
      if (TS < 0)
        return;
      retrieveOnce(TS, /*StoreDst=*/true, O.C);
      return;
    }
    case Op::Drain: {
      const int TS = findSlot(
          O.A, [](const SObj &X) { return X.TconcHeader; });
      if (TS < 0)
        return;
      for (unsigned Guard = 0; Guard != 20000; ++Guard)
        if (!retrieveOnce(TS, /*StoreDst=*/false, 0))
          return;
      diverge("drain did not terminate");
    }
    case Op::Collect:
      H.collect(O.A % M.Generations);
      return;
    case Op::ScopeOpen:
      if (H.scopeDepth() >= ScopeNestCap)
        return;
      H.openScope();
      M.openScope();
      return;
    case Op::ScopeClose:
      if (H.scopeDepth() == 0)
        return;
      // The close hook runs the model close and the full cross-check.
      H.closeScope();
      return;
    case Op::AllocInScope: {
      // A pair chain in the current extent (wherever that is — the op
      // also runs unscoped, which keeps op deletion sound). Most links
      // become garbage the moment the slot is dropped: the request-
      // local churn the scoped design reclaims without tracing. The
      // running head lives in the scratch roots so stress collections
      // or scope closes between links move its bits on both sides.
      const uint32_t Len = 1 + O.A % 4;
      auto Tail = valueOperand(O.B);
      ScratchReal.push_back(Tail.second);
      M.Scratch.push_back(Tail.first);
      SVal MHead = Tail.first;
      for (uint32_t I = 0; I != Len; ++I) {
        const Value Car = Value::fixnum((O.B >> 2) % 4096 + I);
        const Value RHead = H.cons(Car, ScratchReal.back());
        const ObjId Id = M.cons(SVal::immediate(Car), MHead);
        ScratchReal[ScratchReal.size() - 1] = RHead;
        MHead = SVal::object(Id);
        M.Scratch[M.Scratch.size() - 1] = MHead;
      }
      const Value RHead = ScratchReal.back();
      clearOperands();
      storeResult(O.C, MHead.Id, RHead);
      return;
    }
    case Op::DonateSend: {
      // Snapshot-then-donate (DESIGN.md §14): the model records the
      // graph's structure at the instant the heap copies it out. The
      // handle parks in flight; a later receive adopts it, a later
      // drop frees it. donateGraph never safepoints (it allocates only
      // in the exchange arena), so the operand needs no rooting.
      if (InFlight.size() >= MaxInFlight)
        return;
      auto V = valueOperand(O.A);
      InFlightDonation D;
      D.Snap = M.snapshotGraph(V.first);
      D.G = H.donateGraph(V.second);
      // The copy-out bump-allocates exactly the words the snapshot
      // predicts — the strongest size oracle available pre-adoption.
      if (D.G.Bytes != D.Snap.Words * sizeof(uintptr_t))
        diverge("donate-send: heap copied " + std::to_string(D.G.Bytes) +
                " bytes, model predicts " +
                std::to_string(D.Snap.Words * sizeof(uintptr_t)));
      InFlight.push_back(std::move(D));
      auditDonations();
      return;
    }
    case Op::DonateReceive: {
      if (InFlight.empty())
        return;
      const size_t Pick = O.A % InFlight.size();
      // Pre-intern every fixup name on both sides, rooted in scratch,
      // so the heap and model agree on symbol identity before the
      // adopt replays the snapshot. Each H.intern may safepoint (the
      // graph is safely parked in flight).
      std::vector<std::string> Names;
      {
        std::unordered_set<std::string> Seen;
        auto note = [&](const ShadowModel::SnapVal &S) {
          if (S.Kind == ShadowModel::SnapVal::K::Symbol &&
              Seen.insert(S.Name).second)
            Names.push_back(S.Name);
        };
        const ShadowModel::GraphSnapshot &Snap = InFlight[Pick].Snap;
        note(Snap.Root);
        for (const ShadowModel::SnapNode &N : Snap.Nodes)
          for (const ShadowModel::SnapVal &F : N.Fields)
            note(F);
      }
      for (const std::string &Name : Names) {
        const Value RSym = H.intern(Name);
        const SVal MSym = M.intern(Name);
        checkIdentity(MSym.Id, RSym);
        ScratchReal.push_back(RSym);
        M.Scratch.push_back(MSym);
      }
      // Adopt IN PLACE, erase after: adoptDonatedGraph's phase 1 may
      // still collect (intern polls the safepoint even for a pure
      // lookup, which under GENGC_STRESS is a collection), and the
      // mid-adopt audit must find the handle owning its segments.
      // Phase 2 empties the handle's runs in the same breath as it
      // appends them to the heap's adopted space, so the books stay
      // balanced through the handoff.
      const Value RV = H.adoptDonatedGraph(InFlight[Pick].G);
      const ShadowModel::GraphSnapshot Snap =
          std::move(InFlight[Pick].Snap);
      InFlight.erase(InFlight.begin() +
                     static_cast<ptrdiff_t>(Pick));
      const SVal MV = M.adoptGraph(Snap);
      clearOperands();
      if (MV.IsId) {
        if (!RV.isHeapPointer())
          diverge("donate-receive: model object, heap non-pointer");
        checkIdentity(MV.Id, RV);
        storeResult(O.C, MV.Id, RV);
      } else if (RV.bits() != MV.Imm) {
        diverge("donate-receive: immediate mismatch");
      }
      auditDonations();
      return;
    }
    case Op::DonateDrop: {
      if (InFlight.empty())
        return;
      const size_t Pick = O.A % InFlight.size();
      // The handle's destructor frees the donated segments back to the
      // exchange arena — unless the injected fault leaks them, which
      // the audit turns into a divergence on the spot.
      InFlight.erase(InFlight.begin() + static_cast<ptrdiff_t>(Pick));
      auditDonations();
      return;
    }
    }
    diverge("unknown opcode " + std::to_string(O.Code));
  }

  /// One Figure 4 retrieve on both sides; returns false once the queue
  /// reports empty (checking that both sides agree it is).
  bool retrieveOnce(int TS, bool StoreDst, uint32_t Dst) {
    const ObjId Tid = SlotId[TS];
    const Value TconcV = Value::fromBits(SlotBits[TS]);
    const bool ModelPending = M.guardianHasPending(Tid);
    if (H.guardianHasPending(TconcV) != ModelPending)
      diverge("guardian pending? mismatch");
    const Value RV = H.guardianRetrieve(TconcV);
    const SVal MV = M.guardianRetrieve(Tid);
    if (!MV.IsId) {
      if (RV.bits() != MV.Imm)
        diverge("retrieve: immediate mismatch");
      return ModelPending;
    }
    if (!RV.isHeapPointer())
      diverge("retrieve: model object, heap non-pointer");
    checkIdentity(MV.Id, RV);
    if (StoreDst)
      storeResult(Dst, MV.Id, RV);
    return true;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points.
//===----------------------------------------------------------------------===//

RunResult gengc::gcfuzz::runTrace(const Trace &T, const HeapConfig &Cfg) {
  Session S(Cfg);
  return S.run(T);
}

Trace gengc::gcfuzz::shrinkTrace(const Trace &T, const HeapConfig &Cfg,
                                 size_t MaxRuns) {
  size_t Runs = 0;
  auto Fails = [&](const Trace &Cand) {
    if (Runs >= MaxRuns)
      return false;
    ++Runs;
    return runTrace(Cand, Cfg).Diverged;
  };
  Trace Best = T;
  if (!Fails(Best))
    return Best; // Not reproducible under this config; nothing to do.
  size_t Chunk = std::max<size_t>(1, Best.Ops.size() / 2);
  while (true) {
    bool Shrunk = false;
    for (size_t Start = 0; Start < Best.Ops.size();) {
      Trace Cand = Best;
      const size_t End = std::min(Best.Ops.size(), Start + Chunk);
      Cand.Ops.erase(Cand.Ops.begin() + Start, Cand.Ops.begin() + End);
      if (!Cand.Ops.empty() && Fails(Cand)) {
        Best = std::move(Cand);
        Shrunk = true;
        // Re-test the same offset: new ops shifted into the window.
      } else {
        Start = End;
      }
    }
    if (!Shrunk) {
      if (Chunk == 1)
        break;
      Chunk = std::max<size_t>(1, Chunk / 2);
    }
  }
  return Best;
}

std::vector<FuzzConfig> gengc::gcfuzz::standardConfigs() {
  std::vector<FuzzConfig> Configs;
  const size_t Arena = 16u * 1024 * 1024;

  HeapConfig Paper;
  Paper.ArenaBytes = Arena;
  Paper.Generations = 4;
  Paper.TenureCopies = 1;
  Paper.CollectionRadix = 4;
  Paper.Gen0CollectBytes = 6 * 1024;
  Configs.push_back({"paper", Paper});

  HeapConfig Tenure;
  Tenure.ArenaBytes = Arena;
  Tenure.Generations = 3;
  Tenure.TenureCopies = 3;
  Tenure.CollectionRadix = 2;
  Tenure.Gen0CollectBytes = 6 * 1024;
  Configs.push_back({"tenure3", Tenure});

  HeapConfig TwoGen;
  TwoGen.ArenaBytes = Arena;
  TwoGen.Generations = 2;
  TwoGen.TenureCopies = 2;
  TwoGen.CollectionRadix = 3;
  TwoGen.Gen0CollectBytes = 8 * 1024;
  TwoGen.WeakSymbolTable = false;
  Configs.push_back({"twogen-strongsym", TwoGen});

  HeapConfig Single;
  Single.ArenaBytes = Arena;
  Single.Generations = 1;
  Single.TenureCopies = 1;
  Single.Gen0CollectBytes = 10 * 1024;
  Configs.push_back({"single", Single});

  HeapConfig Stress;
  Stress.ArenaBytes = Arena;
  Stress.Generations = 4;
  Stress.TenureCopies = 2;
  Stress.CollectionRadix = 4;
  Stress.Gen0CollectBytes = 6 * 1024;
  Stress.StressGC = true;
  Stress.StressInterval = 7;
  Stress.PoisonFromSpace = true;
  Configs.push_back({"stress", Stress});

  return Configs;
}

bool gengc::gcfuzz::findConfig(const std::string &Name, FuzzConfig &Out) {
  for (FuzzConfig &C : standardConfigs())
    if (C.Name == Name) {
      Out = C;
      return true;
    }
  return false;
}
