//===- scheme/BarrierAnalysis.cpp - Write-barrier elision pass ------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "scheme/BarrierAnalysis.h"

#include <deque>

#include "gc/Roots.h"
#include "scheme/Bytecode.h"

using namespace gengc;

namespace {

/// Abstract value of one operand-stack slot: is the value provably a
/// non-pointer immediate on every path here?
enum AbsVal : uint8_t { Unknown = 0, Imm = 1 };

/// Abstract state at one instruction boundary.
struct AbsState {
  std::vector<uint8_t> Stack; ///< AbsVal per operand-stack slot.
  bool Fresh = false; ///< Innermost frame allocated since the last
                      ///< safepoint on every path here.
  bool Reachable = false;
};

/// Element-wise meet of \p In into \p State. Returns true if \p State
/// changed. A stack-height mismatch means the code is not the shape our
/// compiler emits; the caller bails out of the whole unit (sound: all
/// stores keep their barriers).
bool meetInto(AbsState &State, const AbsState &In, bool &HeightMismatch) {
  if (!State.Reachable) {
    State = In;
    State.Reachable = true;
    return true;
  }
  if (State.Stack.size() != In.Stack.size()) {
    HeightMismatch = true;
    return false;
  }
  bool Changed = false;
  for (size_t I = 0; I != State.Stack.size(); ++I)
    if (State.Stack[I] == Imm && In.Stack[I] != Imm) {
      State.Stack[I] = Unknown;
      Changed = true;
    }
  if (State.Fresh && !In.Fresh) {
    State.Fresh = false;
    Changed = true;
  }
  return Changed;
}

AbsVal top(const AbsState &S) {
  return S.Stack.empty() ? Unknown : static_cast<AbsVal>(S.Stack.back());
}

void pop(AbsState &S, size_t N = 1) {
  for (size_t I = 0; I != N && !S.Stack.empty(); ++I)
    S.Stack.pop_back();
}

void push(AbsState &S, AbsVal V) { S.Stack.push_back(V); }

/// The flag a store earns under in-state \p S. \p Depth applies to
/// LocalSet only (SIZE_MAX for global stores, which never target a
/// frame).
uint32_t classifyStore(const AbsState &S, size_t Depth) {
  if (Depth == 0 && S.Fresh)
    return StoreFlagInit;
  if (top(S) == Imm)
    return StoreFlagImm;
  return StoreFlagBarrier;
}

} // namespace

BarrierElisionStats gengc::runBarrierElision(std::vector<uint32_t> &Code,
                                             const RootVector &Constants) {
  BarrierElisionStats Stats;
  const size_t Len = Code.size();
  if (Len == 0)
    return Stats;

  // In-state per instruction boundary (sparse: only opcode pcs are
  // ever populated).
  std::vector<AbsState> InState(Len);
  std::deque<size_t> Worklist;
  bool Bail = false;

  auto flow = [&](size_t Target, const AbsState &Out) {
    if (Target >= Len) {
      Bail = true; // Malformed jump target; keep every barrier.
      return;
    }
    if (meetInto(InState[Target], Out, Bail))
      Worklist.push_back(Target);
  };

  InState[0].Reachable = true;
  Worklist.push_back(0);

  while (!Worklist.empty() && !Bail) {
    const size_t Pc = Worklist.front();
    Worklist.pop_front();
    const uint32_t Word = Code[Pc];
    if (Word > static_cast<uint32_t>(Op::ExitScope)) {
      Bail = true;
      break;
    }
    const Op O = static_cast<Op>(Word);
    const unsigned NOps = opOperandCount(O);
    const size_t Next = Pc + 1 + NOps;
    if (Next > Len) {
      Bail = true;
      break;
    }
    AbsState Out = InState[Pc];

    switch (O) {
    case Op::Const:
      // The one place static value knowledge enters: a constant is
      // immediate iff its table entry carries no heap pointer (strings,
      // symbols, and quoted structure are heap objects).
      push(Out, Constants[Code[Pc + 1]].isHeapPointer() ? Unknown : Imm);
      break;
    case Op::PushNil:
    case Op::PushTrue:
    case Op::PushFalse:
    case Op::PushVoid:
      push(Out, Imm);
      break;
    case Op::LocalRef:
    case Op::GlobalRef:
      push(Out, Unknown);
      break;
    case Op::LocalSet:
      pop(Out);
      push(Out, Imm); // Pushes void.
      break;
    case Op::GlobalSet:
      // Mutates the existing binding cell (and links the operand to
      // it) without allocating, so frame freshness survives.
      pop(Out);
      push(Out, Imm);
      break;
    case Op::GlobalDef:
      // defineVariable may cons a new binding: a safepoint.
      pop(Out);
      push(Out, Imm);
      Out.Fresh = false;
      break;
    case Op::MakeClosure:
      // Allocates the closure record: a safepoint.
      push(Out, Unknown);
      Out.Fresh = false;
      break;
    case Op::Call:
      pop(Out, static_cast<size_t>(Code[Pc + 1]) + 1);
      push(Out, Unknown);
      Out.Fresh = false; // The callee may allocate arbitrarily.
      break;
    case Op::Bind:
      // Entry of a procedure body: the caller's argument slice is
      // consumed into a fresh frame. The frame is fresh only without a
      // rest parameter — the rest list is consed *after* the frame
      // vector, and those allocations are safepoints.
      Out.Stack.clear();
      Out.Fresh = Code[Pc + 2] == 0;
      break;
    case Op::EnterScope:
      pop(Out, Code[Pc + 1]);
      Out.Fresh = true;
      break;
    case Op::EnterScopeUndef:
      Out.Fresh = true;
      break;
    case Op::ExitScope:
      // The parent frame was allocated before this one, and this one's
      // allocation was itself a safepoint — the parent is never fresh.
      Out.Fresh = false;
      break;
    case Op::Pop:
      pop(Out);
      break;
    case Op::Dup:
      push(Out, top(Out));
      break;
    case Op::Jump:
    case Op::JumpIfFalse:
    case Op::ArityJump:
    case Op::TailCall:
    case Op::Return:
    case Op::ArityFail:
      break; // Successor handling below.
    }

    switch (O) {
    case Op::Jump:
      flow(Code[Pc + 1], Out);
      break;
    case Op::JumpIfFalse:
      pop(Out);
      flow(Code[Pc + 1], Out);
      flow(Next, Out);
      break;
    case Op::ArityJump:
      flow(Code[Pc + 3], Out);
      flow(Next, Out);
      break;
    case Op::TailCall:
    case Op::Return:
    case Op::ArityFail:
      break; // Terminal: no successors.
    default:
      if (Next < Len)
        flow(Next, Out);
      break;
    }
  }

  if (Bail) {
    BarrierElisionStats None;
    return None;
  }

  // Rewrite pass: now that every in-state is a fixpoint over all paths,
  // walk the stream once and upgrade each store's elide operand.
  size_t Pc = 0;
  while (Pc < Len) {
    const Op O = static_cast<Op>(Code[Pc]);
    const unsigned NOps = opOperandCount(O);
    const AbsState &S = InState[Pc];
    if (S.Reachable) {
      if (O == Op::LocalSet) {
        const uint32_t Flag = classifyStore(S, Code[Pc + 1]);
        Code[Pc + 3] = Flag;
        ++(Flag == StoreFlagInit
               ? Stats.InitStores
               : Flag == StoreFlagImm ? Stats.ImmStores
                                      : Stats.BarrierStores);
      } else if (O == Op::GlobalDef || O == Op::GlobalSet) {
        const uint32_t Flag = classifyStore(S, SIZE_MAX);
        Code[Pc + 2] = Flag;
        ++(Flag == StoreFlagImm ? Stats.ImmStores : Stats.BarrierStores);
      }
    }
    Pc += 1 + NOps;
  }
  return Stats;
}
