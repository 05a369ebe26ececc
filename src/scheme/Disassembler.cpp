//===- scheme/Disassembler.cpp - Bytecode pretty-printer ------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "scheme/Bytecode.h"
#include "scheme/Printer.h"

using namespace gengc;

namespace {

struct OpInfo {
  const char *Name;
  bool FirstOperandIsConstant;
  /// The trailing operand is a StoreFlag (the store opcodes): render it
  /// as a barrier-elision annotation instead of a raw number.
  bool LastOperandIsElideFlag;
};

OpInfo infoFor(Op O) {
  switch (O) {
  case Op::Const:
    return {"const", true, false};
  case Op::PushNil:
    return {"push-nil", false, false};
  case Op::PushTrue:
    return {"push-true", false, false};
  case Op::PushFalse:
    return {"push-false", false, false};
  case Op::PushVoid:
    return {"push-void", false, false};
  case Op::LocalRef:
    return {"local-ref", false, false};
  case Op::LocalSet:
    return {"local-set", false, true};
  case Op::GlobalRef:
    return {"global-ref", true, false};
  case Op::GlobalDef:
    return {"global-def", true, true};
  case Op::GlobalSet:
    return {"global-set", true, true};
  case Op::MakeClosure:
    return {"make-closure", false, false};
  case Op::Call:
    return {"call", false, false};
  case Op::TailCall:
    return {"tail-call", false, false};
  case Op::Return:
    return {"return", false, false};
  case Op::Jump:
    return {"jump", false, false};
  case Op::JumpIfFalse:
    return {"jump-if-false", false, false};
  case Op::Pop:
    return {"pop", false, false};
  case Op::Dup:
    return {"dup", false, false};
  case Op::ArityJump:
    return {"arity-jump", false, false};
  case Op::Bind:
    return {"bind", false, false};
  case Op::ArityFail:
    return {"arity-fail", false, false};
  case Op::EnterScope:
    return {"enter-scope", false, false};
  case Op::EnterScopeUndef:
    return {"enter-scope-undef", false, false};
  case Op::ExitScope:
    return {"exit-scope", false, false};
  }
  return {"??", false, false};
}

} // namespace

std::string gengc::disassemble(const CompiledProgram &Program,
                               const CodeUnit &Unit) {
  std::string Out = ";; unit '" + Unit.Name + "'\n";
  size_t PC = 0;
  while (PC < Unit.Code.size()) {
    Op O = static_cast<Op>(Unit.Code[PC]);
    OpInfo Info = infoFor(O);
    const unsigned Operands = opOperandCount(O);
    Out += std::to_string(PC) + ": " + Info.Name;
    ++PC;
    for (unsigned K = 0; K != Operands; ++K) {
      if (Info.LastOperandIsElideFlag && K == Operands - 1) {
        // BarrierAnalysis's verdict for this store; unannotated stores
        // take the full write barrier.
        if (Unit.Code[PC] == StoreFlagInit)
          Out += " [init]";
        else if (Unit.Code[PC] == StoreFlagImm)
          Out += " [imm]";
        ++PC;
        continue;
      }
      Out += " " + std::to_string(Unit.Code[PC]);
      if (K == 0 && Info.FirstOperandIsConstant) {
        Heap &H = const_cast<CompiledProgram &>(Program).heap();
        Value C = Program.constantOf(Unit, Unit.Code[PC]);
        // A global operand prints as its symbol, linked to its binding
        // cell or not, so a unit disassembles the same before and after
        // it runs.
        if (O != Op::Const && C.isPair())
          C = pairCar(C);
        Out += " {" + writeToString(H, C) + "}";
      }
      ++PC;
    }
    Out += "\n";
  }
  return Out;
}
