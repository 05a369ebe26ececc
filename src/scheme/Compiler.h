//===- scheme/Compiler.h - Scheme-to-bytecode compiler --------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles the interpreter's Scheme dialect to stack-VM bytecode with
/// compile-time lexical addressing. The compiler performs no heap
/// allocation while walking the source (so no collection can move the
/// forms mid-compile); each unit's constants are frozen into a rooted
/// heap vector as the final step.
///
/// Supported forms match the interpreter: quote, if, define, set!,
/// lambda, case-lambda, begin, let (plain and named), let*, letrec,
/// and, or, cond (with else), when, unless, applications. define inside
/// a body defines a global, as in the REPL semantics the interpreter
/// uses at top level.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_SCHEME_COMPILER_H
#define GENGC_SCHEME_COMPILER_H

#include <memory>
#include <string>
#include <utility>

#include "scheme/Bytecode.h"
#include "scheme/Interpreter.h"

namespace gengc {

class Compiler {
public:
  /// \p I supplies the heap, the interned special-form symbols, and the
  /// global environment the compiled code will run against.
  ///
  /// Construction interns the special-form symbols (a safepoint); the
  /// caller must keep the form it is about to compile rooted across it.
  Compiler(Interpreter &I, CompiledProgram &Program)
      : I(I), H(I.heap()), Program(Program), FS(I.heap()),
        ScopeSymbols(H) {}

  /// Compiles one top-level form into a zero-argument entry unit.
  /// Returns the unit index, or SIZE_MAX on error (query error()).
  size_t compileTopLevel(Value Form);

  bool hadError() const { return !ErrorMessage.empty(); }
  const std::string &error() const { return ErrorMessage; }

private:
  /// Lexical scope: a stack of frames, each a range of symbols inside
  /// ScopeSymbols (rooted, so symbol movement during the final freeze
  /// step cannot strand them).
  struct Frame {
    size_t Begin;
    size_t End;
  };

  /// Code being emitted for one unit. Constants live behind a pointer
  /// so finishUnit can hand the (still rooted) vector to PendingPools
  /// without copying or re-registering root slots.
  struct UnitBuilder {
    std::vector<uint32_t> Code;
    std::unique_ptr<RootVector> Constants;
    /// Per constant slot: true if it is a global operand (see
    /// addConstant).
    std::vector<bool> GlobalSlots;
    std::string Name;
    explicit UnitBuilder(Heap &H)
        : Constants(std::make_unique<RootVector>(H)) {}
  };

  /// The special-form symbols, interned once at construction and held
  /// in root slots so a collection mid-compile cannot strand them.
  struct RootedForms {
    Root Quote, If, Define, Set, Lambda, CaseLambda, Begin, Let, LetStar,
        Letrec, And, Or, Cond, Else, When, Unless;
    explicit RootedForms(Heap &H);
  };

  void fail(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage = Message;
  }

  //===--- Emission helpers ------------------------------------------------===//
  void emit(UnitBuilder &B, Op O) {
    B.Code.push_back(static_cast<uint32_t>(O));
  }
  void emit(UnitBuilder &B, Op O, uint32_t A) {
    emit(B, O);
    B.Code.push_back(A);
  }
  void emit(UnitBuilder &B, Op O, uint32_t A, uint32_t Bb) {
    emit(B, O, A);
    B.Code.push_back(Bb);
  }
  void emit(UnitBuilder &B, Op O, uint32_t A, uint32_t Bb, uint32_t C) {
    emit(B, O, A, Bb);
    B.Code.push_back(C);
  }
  /// Emits a jump-family opcode with a placeholder target; returns the
  /// operand position to patch.
  size_t emitJump(UnitBuilder &B, Op O);
  void patchJump(UnitBuilder &B, size_t OperandAt) {
    B.Code[OperandAt] = static_cast<uint32_t>(B.Code.size());
  }
  /// Returns a constant slot holding \p V, reusing an eq? slot of the
  /// same kind. Global operands (\p Global: the symbol of a GlobalRef,
  /// GlobalDef or GlobalSet) never share a slot with quoted data, since
  /// the VM overwrites them with binding cells on first use.
  uint32_t addConstant(UnitBuilder &B, Value V, bool Global = false);

  //===--- Scopes ------------------------------------------------------------===//
  /// Pushes a frame of the given formals (list, possibly improper, or a
  /// single rest symbol); returns fixed count and rest flag.
  void pushFormalsFrame(Value Formals, uint32_t &NFixed, bool &HasRest);
  void pushSymbolsFrame(const std::vector<Value> &Symbols);
  void popFrame();
  /// Resolves a variable to (depth, index); false if not lexical.
  bool resolveLexical(Value Symbol, uint32_t &Depth, uint32_t &Index);

  //===--- Form compilation ---------------------------------------------------===//
  void compileExpr(UnitBuilder &B, Value Expr, bool Tail);
  void compileBody(UnitBuilder &B, Value Body, bool Tail);
  void compileApplication(UnitBuilder &B, Value Expr, bool Tail);
  void compileIf(UnitBuilder &B, Value Rest, bool Tail);
  void compileDefine(UnitBuilder &B, Value Rest);
  void compileSet(UnitBuilder &B, Value Rest);
  void compileLet(UnitBuilder &B, Value Rest, bool Tail);
  void compileLetStarOrRec(UnitBuilder &B, Value Rest, bool Tail,
                           bool IsRec);
  void compileAndOr(UnitBuilder &B, Value Rest, bool Tail, bool IsAnd);
  void compileCond(UnitBuilder &B, Value Rest, bool Tail);
  void compileWhenUnless(UnitBuilder &B, Value Rest, bool Tail,
                         bool Negate);
  /// Compiles the clause list of a lambda/case-lambda/named-let into a
  /// fresh code unit; returns its index.
  size_t compileProcedureUnit(Value Clauses, const std::string &Name);

  size_t finishUnit(UnitBuilder &B);
  /// Allocates the heap vector for every pending unit's constants and
  /// patches the units to point at them. The only allocating step of a
  /// compile; runs after the source walk so no bare Value is live.
  void freezeConstantPools();

  Interpreter &I;
  Heap &H;
  CompiledProgram &Program;
  RootedForms FS;
  RootVector ScopeSymbols;
  std::vector<Frame> Scopes;
  /// Units finished during the walk, awaiting their frozen pools:
  /// (unit index, rooted constants).
  std::vector<std::pair<size_t, std::unique_ptr<RootVector>>> PendingPools;
  std::string ErrorMessage;
};

} // namespace gengc

#endif // GENGC_SCHEME_COMPILER_H
