//===- scheme/Primitives.cpp - Builtin procedures -------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "core/ListOps.h"
#include "gc/ScopedGeneration.h"
#include "io/GuardedPorts.h"
#include "scheme/Interpreter.h"
#include "scheme/Printer.h"
#include "telemetry/Mmu.h"

using namespace gengc;

namespace {

bool valuesEqual(Heap &H, Value A, Value B, unsigned Depth) {
  if (A == B)
    return true;
  if (Depth > 256)
    return false;
  if (A.isPair() && B.isPair())
    return valuesEqual(H, pairCar(A), pairCar(B), Depth + 1) &&
           valuesEqual(H, pairCdr(A), pairCdr(B), Depth + 1);
  if (isString(A) && isString(B))
    return objectLength(A) == objectLength(B) &&
           std::string_view(stringData(A), objectLength(A)) ==
               std::string_view(stringData(B), objectLength(B));
  if (isFlonum(A) && isFlonum(B))
    return flonumValue(A) == flonumValue(B);
  if (isVector(A) && isVector(B)) {
    if (objectLength(A) != objectLength(B))
      return false;
    for (size_t I = 0, E = objectLength(A); I != E; ++I)
      if (!valuesEqual(H, objectField(A, I), objectField(B, I), Depth + 1))
        return false;
    return true;
  }
  return false;
}

Value requireFixnum(Interpreter &I, Value V, const char *Who) {
  if (!V.isFixnum())
    return I.signalError(std::string(Who) + ": expected a number");
  return V;
}

std::string stringArg(Interpreter &I, Value V, const char *Who) {
  if (!isString(V)) {
    I.signalError(std::string(Who) + ": expected a string");
    return "";
  }
  return std::string(stringData(V), objectLength(V));
}

intptr_t portArg(Interpreter &I, Value V, const char *Who) {
  if (!isPortHandle(V)) {
    I.signalError(std::string(Who) + ": expected a port");
    return -1;
  }
  return objectField(V, PortId).asFixnum();
}

} // namespace

void Interpreter::definePrimitive(std::string_view Name, intptr_t MinArgs,
                                  intptr_t MaxArgs, PrimitiveFn Fn) {
  intptr_t Index = static_cast<intptr_t>(PrimitiveFns.size());
  PrimitiveFns.push_back(std::move(Fn));
  Root Sym(H, H.intern(Name));
  Root Prim(H, H.makePrimitive(Index, MinArgs, MaxArgs, Sym));
  defineVariable(GlobalEnv, Sym, Prim);
}

void Interpreter::installPrimitives() {
  auto Def = [this](std::string_view Name, intptr_t Min, intptr_t Max,
                    PrimitiveFn Fn) {
    definePrimitive(Name, Min, Max, std::move(Fn));
  };

  //===--- Pairs and weak pairs -------------------------------------------===//
  Def("cons", 2, 2, [](Interpreter &I, RootVector &A) {
    return I.heap().cons(A[0], A[1]);
  });
  Def("weak-cons", 2, 2, [](Interpreter &I, RootVector &A) {
    return I.heap().weakCons(A[0], A[1]);
  });
  Def("car", 1, 1, [](Interpreter &I, RootVector &A) {
    if (!A[0].isPair())
      return I.signalError("car: expected a pair");
    return pairCar(A[0]);
  });
  Def("cdr", 1, 1, [](Interpreter &I, RootVector &A) {
    if (!A[0].isPair())
      return I.signalError("cdr: expected a pair");
    return pairCdr(A[0]);
  });
  Def("set-car!", 2, 2, [](Interpreter &I, RootVector &A) {
    if (!A[0].isPair())
      return I.signalError("set-car!: expected a pair");
    I.heap().setCar(A[0], A[1]);
    return Value::voidV();
  });
  Def("set-cdr!", 2, 2, [](Interpreter &I, RootVector &A) {
    if (!A[0].isPair())
      return I.signalError("set-cdr!: expected a pair");
    I.heap().setCdr(A[0], A[1]);
    return Value::voidV();
  });
  Def("pair?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(A[0].isPair());
  });
  Def("weak-pair?", 1, 1, [](Interpreter &I, RootVector &A) {
    return Value::boolean(I.heap().isWeakPair(A[0]));
  });
  Def("null?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(A[0].isNil());
  });

  //===--- Guardians -------------------------------------------------------===//
  Def("make-guardian", 0, 0, [](Interpreter &I, RootVector &) {
    return I.heap().makeGuardianObject();
  });
  Def("guardian?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(isGuardianObject(A[0]));
  });

  //===--- Collector control (Chez's collect) ------------------------------===//
  Def("collect", 0, 1, [](Interpreter &I, RootVector &A) {
    unsigned G = 0;
    if (A.size() == 1) {
      if (!A[0].isFixnum() || A[0].asFixnum() < 0)
        return I.signalError("collect: expected a generation number");
      G = static_cast<unsigned>(A[0].asFixnum());
    }
    I.heap().collect(G);
    return Value::voidV();
  });
  Def("collect-maximum-generation", 0, 0,
      [](Interpreter &I, RootVector &) {
        return Value::fixnum(I.heap().oldestGeneration());
      });
  Def("collection-count", 0, 0, [](Interpreter &I, RootVector &) {
    return Value::fixnum(
        static_cast<intptr_t>(I.heap().collectionCount()));
  });
  Def("generation-of", 1, 1, [](Interpreter &I, RootVector &A) {
    return Value::fixnum(I.heap().generationOf(A[0]));
  });

  //===--- Observability (gc/telemetry/) -----------------------------------===//
  // Bytes currently occupied by live objects (Chez's bytes-allocated).
  Def("bytes-allocated", 0, 0, [](Interpreter &I, RootVector &) {
    return Value::fixnum(static_cast<intptr_t>(I.heap().liveBytes()));
  });
  // (collect-notify) reads the post-GC reporter flag; (collect-notify b)
  // sets it and returns the previous value.
  Def("collect-notify", 0, 1, [](Interpreter &I, RootVector &A) {
    bool Previous = I.heap().collectNotify();
    if (A.size() == 1)
      I.heap().setCollectNotify(A[0] != Value::falseV());
    return Value::boolean(Previous);
  });
  // Association list of collector statistics: running totals, the last
  // collection's counters and per-phase nanoseconds, per-generation
  // occupancy, and survival rates over the recent history window.
  Def("gc-stats", 0, 0, [](Interpreter &I, RootVector &) {
    Heap &H = I.heap();
    // Snapshot everything first: building the list below allocates, and
    // under stress mode any allocation may run a collection that
    // rewrites lastStats()/totals() mid-build.
    const GcStats Last = H.lastStats();
    const GcTotals Tot = H.totals();
    const uint64_t LiveBytes = H.liveBytes();
    const uint64_t TotalAllocated = H.totalBytesAllocated();
    const uint64_t SegmentsInUse = H.segmentsInUse();
    const uint64_t BarriersExecuted = H.barriersExecuted();
    const uint64_t BarriersElided = H.barriersElided();
    const ScopeTotals ScopeTot = H.scopeTotals();
    const unsigned Generations = H.config().Generations;
    Heap::GenerationUsage Usage[MaxGenerations];
    double Rates[MaxGenerations];
    for (unsigned G = 0; G != Generations; ++G) {
      Usage[G] = H.generationUsage(G);
      Rates[G] = H.survivalRate(G);
    }

    RootVector Entries(H);
    auto Fix = [](uint64_t N) {
      return Value::fixnum(static_cast<intptr_t>(N));
    };
    auto Add = [&](const char *Name, Value V) {
      Root RV(H, V);
      Root Sym(H, H.intern(Name));
      Entries.push_back(H.cons(Sym, RV));
    };
    Add("collections", Fix(Tot.Collections));
    Add("full-collections", Fix(Tot.FullCollections));
    Add("bytes-allocated", Fix(LiveBytes));
    Add("total-bytes-allocated", Fix(TotalAllocated));
    Add("segments-in-use", Fix(SegmentsInUse));
    Add("total-objects-copied", Fix(Tot.ObjectsCopied));
    Add("total-bytes-copied", Fix(Tot.BytesCopied));
    Add("total-objects-promoted", Fix(Tot.ObjectsPromoted));
    Add("total-guardian-objects-saved", Fix(Tot.GuardianObjectsSaved));
    Add("total-weak-pointers-broken", Fix(Tot.WeakPointersBroken));
    Add("total-finalizer-thunks-run", Fix(Tot.FinalizerThunksRun));
    Add("total-gc-nanos", Fix(Tot.DurationNanos));
    // Process-lifetime barrier counts (not windowed to a collection):
    // executed = stores that ran the write-barrier filter; elided =
    // stores that skipped it on a compiler or runtime soundness proof.
    Add("barriers-executed", Fix(BarriersExecuted));
    Add("barriers-elided", Fix(BarriersElided));
    Add("last-generation", Fix(Last.CollectedGeneration));
    Add("last-target-generation", Fix(Last.TargetGeneration));
    Add("last-duration-nanos", Fix(Last.DurationNanos));
    Add("last-objects-copied", Fix(Last.ObjectsCopied));
    Add("last-bytes-copied", Fix(Last.BytesCopied));
    Add("last-bytes-in-from-space", Fix(Last.BytesInFromSpace));
    Add("last-segments-freed", Fix(Last.SegmentsFreed));
    // Request-scope ledger (DESIGN.md §13): opens/closes, nesting, and
    // the bytes reclaimed at scope exits without ever being traced.
    Add("scope-opens", Fix(ScopeTot.ScopesOpened));
    Add("scope-closes", Fix(ScopeTot.ScopesClosed));
    Add("scope-max-depth", Fix(ScopeTot.MaxDepth));
    Add("scope-objects-evacuated", Fix(ScopeTot.ObjectsEvacuated));
    Add("scope-bytes-evacuated", Fix(ScopeTot.BytesEvacuated));
    Add("scope-bytes-in-scopes", Fix(ScopeTot.BytesInScopes));
    Add("scope-bytes-reclaimed", Fix(ScopeTot.BytesReclaimed));
    Add("scope-close-nanos", Fix(ScopeTot.CloseNanos));

    // Mutator-utilization and pause-SLO ledger (telemetry/Mmu.h): MMU
    // at the standard windows over the retained pause clips, and the
    // configured pause ceiling with its violation count.
    {
      const GcTelemetry &Tel = H.telemetry();
      const std::vector<PauseClip> Clips = Tel.pauseClips();
      const uint64_t TotalNanos = Tel.now();
      for (const MmuPoint &P : standardMmuCurve(Clips, TotalNanos)) {
        std::string Key =
            "mmu-" + std::to_string(P.WindowNanos / 1000000) + "ms";
        Add(Key.c_str(), H.makeFlonum(P.Utilization));
      }
      Add("slo-max-pause-nanos", Fix(Tel.SloMaxPauseNanos));
      Add("slo-pause-violations", Fix(Tel.SloPauseViolations));
    }

    // ((setup . ns) (roots . ns) ...), in phase order.
    {
      Root Phases(H, Value::nil());
      for (unsigned P = NumGcPhases; P != 0; --P) {
        GcPhase Ph = static_cast<GcPhase>(P - 1);
        Root Sym(H, H.intern(gcPhaseName(Ph)));
        Root Pair(H, H.cons(Sym, Fix(Last.Phases[Ph])));
        Phases = H.cons(Pair, Phases);
      }
      Add("last-phase-nanos", Phases);
    }

    // ((gen segments used-bytes survival-rate-or-#f) ...).
    {
      Root Gens(H, Value::nil());
      for (unsigned G = Generations; G != 0; --G) {
        const unsigned Gen = G - 1;
        Root Rate(H, Rates[Gen] < 0 ? Value::falseV()
                                    : H.makeFlonum(Rates[Gen]));
        Root Row(H, H.cons(Rate, Value::nil()));
        Row = H.cons(Fix(Usage[Gen].UsedBytes), Row);
        Row = H.cons(Fix(Usage[Gen].SegmentCount), Row);
        Row = H.cons(Value::fixnum(Gen), Row);
        Gens = H.cons(Row, Gens);
      }
      Add("generations", Gens);
    }

    Root Result(H, Value::nil());
    for (size_t J = Entries.size(); J != 0; --J)
      Result = H.cons(Entries[J - 1], Result);
    return Result.get();
  });

  // Sampled allocation-site profile (gc/telemetry/AllocProfiler.h):
  // #f when profiling is off, else one row per sampled site —
  // (name samples sampled-bytes survived-bytes dead-bytes) — with the
  // byte figures being whole-interval estimates. Survival figures
  // update at each collection, so (collect) then (heap-profile) shows
  // which procedures' allocations are tenuring.
  Def("heap-profile", 0, 0, [](Interpreter &I, RootVector &) {
    Heap &H = I.heap();
    const AllocProfiler &P = H.allocProfiler();
    if (!P.enabled())
      return Value::falseV();
    // Snapshot first: consing rows below allocates, which under stress
    // can run a collection that rewrites the survival columns.
    const std::vector<AllocSiteStats> Sites = P.sites();
    auto Fix = [](uint64_t N) {
      return Value::fixnum(static_cast<intptr_t>(N));
    };
    RootVector Rows(H);
    for (const AllocSiteStats &S : Sites) {
      if (S.Samples == 0)
        continue;
      Root Row(H, H.cons(Fix(S.DeadBytes), Value::nil()));
      Row = H.cons(Fix(S.SurvivedBytes), Row);
      Row = H.cons(Fix(S.SampledBytes), Row);
      Row = H.cons(Fix(S.Samples), Row);
      Root Name(H, H.makeString(S.Name));
      Row = H.cons(Name, Row);
      Rows.push_back(Row.get());
    }
    Root Result(H, Value::nil());
    for (size_t J = Rows.size(); J != 0; --J)
      Result = H.cons(Rows[J - 1], Result);
    return Result.get();
  });

  //===--- Equality ---------------------------------------------------------===//
  Def("eq?", 2, 2, [](Interpreter &, RootVector &A) {
    return Value::boolean(A[0] == A[1]);
  });
  Def("eqv?", 2, 2, [](Interpreter &I, RootVector &A) {
    if (A[0] == A[1])
      return Value::trueV();
    if (isFlonum(A[0]) && isFlonum(A[1]))
      return Value::boolean(flonumValue(A[0]) == flonumValue(A[1]));
    (void)I;
    return Value::falseV();
  });
  Def("equal?", 2, 2, [](Interpreter &I, RootVector &A) {
    return Value::boolean(valuesEqual(I.heap(), A[0], A[1], 0));
  });
  Def("not", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(A[0].isFalse());
  });

  //===--- Type predicates --------------------------------------------------===//
  Def("symbol?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(isSymbol(A[0]));
  });
  Def("string?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(isString(A[0]));
  });
  Def("number?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(A[0].isFixnum() || isFlonum(A[0]));
  });
  Def("boolean?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(A[0].isTrue() || A[0].isFalse());
  });
  Def("char?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(A[0].isChar());
  });
  Def("vector?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(isVector(A[0]));
  });
  Def("procedure?", 1, 1, [](Interpreter &I, RootVector &A) {
    return Value::boolean(I.isApplicable(A[0]));
  });
  Def("eof-object?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(A[0].isEof());
  });

  //===--- Arithmetic -------------------------------------------------------===//
  Def("+", 0, -1, [](Interpreter &I, RootVector &A) {
    intptr_t Sum = 0;
    for (size_t J = 0; J != A.size(); ++J) {
      if (requireFixnum(I, A[J], "+").isVoid())
        return Value::voidV();
      Sum += A[J].asFixnum();
    }
    return Value::fixnum(Sum);
  });
  Def("-", 1, -1, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[0], "-").isVoid())
      return Value::voidV();
    intptr_t Acc = A[0].asFixnum();
    if (A.size() == 1)
      return Value::fixnum(-Acc);
    for (size_t J = 1; J != A.size(); ++J) {
      if (requireFixnum(I, A[J], "-").isVoid())
        return Value::voidV();
      Acc -= A[J].asFixnum();
    }
    return Value::fixnum(Acc);
  });
  Def("*", 0, -1, [](Interpreter &I, RootVector &A) {
    intptr_t Product = 1;
    for (size_t J = 0; J != A.size(); ++J) {
      if (requireFixnum(I, A[J], "*").isVoid())
        return Value::voidV();
      Product *= A[J].asFixnum();
    }
    return Value::fixnum(Product);
  });
  Def("quotient", 2, 2, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[0], "quotient").isVoid() ||
        requireFixnum(I, A[1], "quotient").isVoid())
      return Value::voidV();
    if (A[1].asFixnum() == 0)
      return I.signalError("quotient: division by zero");
    return Value::fixnum(A[0].asFixnum() / A[1].asFixnum());
  });
  Def("remainder", 2, 2, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[0], "remainder").isVoid() ||
        requireFixnum(I, A[1], "remainder").isVoid())
      return Value::voidV();
    if (A[1].asFixnum() == 0)
      return I.signalError("remainder: division by zero");
    return Value::fixnum(A[0].asFixnum() % A[1].asFixnum());
  });
  Def("modulo", 2, 2, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[0], "modulo").isVoid() ||
        requireFixnum(I, A[1], "modulo").isVoid())
      return Value::voidV();
    intptr_t D = A[1].asFixnum();
    if (D == 0)
      return I.signalError("modulo: division by zero");
    intptr_t M = A[0].asFixnum() % D;
    if (M != 0 && ((M < 0) != (D < 0)))
      M += D;
    return Value::fixnum(M);
  });
  auto Compare = [](const char *Who, auto Cmp) {
    return [Who, Cmp](Interpreter &I, RootVector &A) {
      for (size_t J = 0; J + 1 != A.size(); ++J) {
        if (requireFixnum(I, A[J], Who).isVoid() ||
            requireFixnum(I, A[J + 1], Who).isVoid())
          return Value::voidV();
        if (!Cmp(A[J].asFixnum(), A[J + 1].asFixnum()))
          return Value::falseV();
      }
      return Value::trueV();
    };
  };
  Def("=", 2, -1, Compare("=", [](intptr_t X, intptr_t Y) { return X == Y; }));
  Def("<", 2, -1, Compare("<", [](intptr_t X, intptr_t Y) { return X < Y; }));
  Def("<=", 2, -1,
      Compare("<=", [](intptr_t X, intptr_t Y) { return X <= Y; }));
  Def(">", 2, -1, Compare(">", [](intptr_t X, intptr_t Y) { return X > Y; }));
  Def(">=", 2, -1,
      Compare(">=", [](intptr_t X, intptr_t Y) { return X >= Y; }));
  Def("zero?", 1, 1, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[0], "zero?").isVoid())
      return Value::voidV();
    return Value::boolean(A[0].asFixnum() == 0);
  });

  //===--- Lists ------------------------------------------------------------===//
  Def("list", 0, -1, [](Interpreter &I, RootVector &A) {
    Root Result(I.heap(), Value::nil());
    for (size_t J = A.size(); J != 0; --J)
      Result = I.heap().cons(A[J - 1], Result.get());
    return Result.get();
  });
  Def("length", 1, 1, [](Interpreter &I, RootVector &A) {
    (void)I;
    return Value::fixnum(static_cast<intptr_t>(listLength(A[0])));
  });
  Def("reverse", 1, 1, [](Interpreter &I, RootVector &A) {
    return listReverse(I.heap(), A[0]);
  });
  Def("assq", 2, 2, [](Interpreter &, RootVector &A) {
    return listAssq(A[0], A[1]);
  });
  Def("memq", 2, 2, [](Interpreter &, RootVector &A) {
    return listMemq(A[0], A[1]);
  });
  Def("remq", 2, 2, [](Interpreter &I, RootVector &A) {
    return listRemq(I.heap(), A[0], A[1]);
  });
  Def("append", 0, -1, [](Interpreter &I, RootVector &A) {
    Heap &H = I.heap();
    Root Result(H, A.empty() ? Value::nil() : A[A.size() - 1]);
    for (size_t J = A.size() - 1; J-- > 0;) {
      RootVector Elems(H);
      for (Value L = A[J]; L.isPair(); L = pairCdr(L))
        Elems.push_back(pairCar(L));
      for (size_t K = Elems.size(); K != 0; --K)
        Result = H.cons(Elems[K - 1], Result.get());
    }
    return Result.get();
  });
  Def("list-ref", 2, 2, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[1], "list-ref").isVoid())
      return Value::voidV();
    return listRef(A[0], static_cast<size_t>(A[1].asFixnum()));
  });

  //===--- Vectors ----------------------------------------------------------===//
  Def("make-vector", 1, 2, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[0], "make-vector").isVoid())
      return Value::voidV();
    Value Fill = A.size() == 2 ? A[1] : Value::fixnum(0);
    return I.heap().makeVector(
        static_cast<size_t>(A[0].asFixnum()), Fill);
  });
  Def("vector", 0, -1, [](Interpreter &I, RootVector &A) {
    Root V(I.heap(), I.heap().makeVector(A.size(), Value::nil()));
    for (size_t J = 0; J != A.size(); ++J)
      I.heap().vectorSet(V, J, A[J]);
    return V.get();
  });
  Def("vector-ref", 2, 2, [](Interpreter &I, RootVector &A) {
    if (!isVector(A[0]))
      return I.signalError("vector-ref: expected a vector");
    if (requireFixnum(I, A[1], "vector-ref").isVoid())
      return Value::voidV();
    size_t Index = static_cast<size_t>(A[1].asFixnum());
    if (Index >= objectLength(A[0]))
      return I.signalError("vector-ref: index out of range");
    return objectField(A[0], Index);
  });
  Def("vector-set!", 3, 3, [](Interpreter &I, RootVector &A) {
    if (!isVector(A[0]))
      return I.signalError("vector-set!: expected a vector");
    if (requireFixnum(I, A[1], "vector-set!").isVoid())
      return Value::voidV();
    size_t Index = static_cast<size_t>(A[1].asFixnum());
    if (Index >= objectLength(A[0]))
      return I.signalError("vector-set!: index out of range");
    I.heap().vectorSet(A[0], Index, A[2]);
    return Value::voidV();
  });
  Def("vector-length", 1, 1, [](Interpreter &I, RootVector &A) {
    if (!isVector(A[0]))
      return I.signalError("vector-length: expected a vector");
    return Value::fixnum(static_cast<intptr_t>(objectLength(A[0])));
  });
  Def("vector->list", 1, 1, [](Interpreter &I, RootVector &A) {
    if (!isVector(A[0]))
      return I.signalError("vector->list: expected a vector");
    Heap &H = I.heap();
    Root Vec(H, A[0]);
    Root Result(H, Value::nil());
    for (size_t J = objectLength(Vec.get()); J != 0; --J)
      Result = H.cons(objectField(Vec.get(), J - 1), Result.get());
    return Result.get();
  });
  Def("list->vector", 1, 1, [](Interpreter &I, RootVector &A) {
    Heap &H = I.heap();
    Root List(H, A[0]);
    Root Vec(H, H.makeVector(listLength(List.get()), Value::nil()));
    size_t J = 0;
    for (Value L = List.get(); L.isPair(); L = pairCdr(L))
      H.vectorSet(Vec, J++, pairCar(L));
    return Vec.get();
  });

  //===--- Strings and symbols ----------------------------------------------===//
  Def("string-length", 1, 1, [](Interpreter &I, RootVector &A) {
    if (!isString(A[0]))
      return I.signalError("string-length: expected a string");
    return Value::fixnum(static_cast<intptr_t>(objectLength(A[0])));
  });
  Def("string-append", 0, -1, [](Interpreter &I, RootVector &A) {
    std::string Out;
    for (size_t J = 0; J != A.size(); ++J)
      Out += stringArg(I, A[J], "string-append");
    if (I.hadError())
      return Value::voidV();
    return I.heap().makeString(Out);
  });
  Def("string=?", 2, 2, [](Interpreter &I, RootVector &A) {
    std::string X = stringArg(I, A[0], "string=?");
    std::string Y = stringArg(I, A[1], "string=?");
    if (I.hadError())
      return Value::voidV();
    return Value::boolean(X == Y);
  });
  Def("symbol->string", 1, 1, [](Interpreter &I, RootVector &A) {
    if (!isSymbol(A[0]))
      return I.signalError("symbol->string: expected a symbol");
    return I.heap().makeString(I.heap().symbolName(A[0]));
  });
  Def("string->symbol", 1, 1, [](Interpreter &I, RootVector &A) {
    std::string S = stringArg(I, A[0], "string->symbol");
    if (I.hadError())
      return Value::voidV();
    return I.heap().intern(S);
  });
  Def("number->string", 1, 1, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[0], "number->string").isVoid())
      return Value::voidV();
    return I.heap().makeString(std::to_string(A[0].asFixnum()));
  });
  Def("string-ref", 2, 2, [](Interpreter &I, RootVector &A) {
    if (!isString(A[0]))
      return I.signalError("string-ref: expected a string");
    if (requireFixnum(I, A[1], "string-ref").isVoid())
      return Value::voidV();
    size_t Index = static_cast<size_t>(A[1].asFixnum());
    if (Index >= objectLength(A[0]))
      return I.signalError("string-ref: index out of range");
    return Value::character(static_cast<uint32_t>(
        static_cast<unsigned char>(stringData(A[0])[Index])));
  });
  Def("char->integer", 1, 1, [](Interpreter &I, RootVector &A) {
    if (!A[0].isChar())
      return I.signalError("char->integer: expected a character");
    return Value::fixnum(A[0].charCode());
  });
  Def("integer->char", 1, 1, [](Interpreter &I, RootVector &A) {
    if (requireFixnum(I, A[0], "integer->char").isVoid())
      return Value::voidV();
    return Value::character(static_cast<uint32_t>(A[0].asFixnum()));
  });
  Def("gensym", 0, 0, [](Interpreter &I, RootVector &) {
    static uint64_t Counter = 0;
    return I.heap().makeUninternedSymbol("g" + std::to_string(Counter++));
  });

  //===--- Output -----------------------------------------------------------===//
  Def("display", 1, 1, [](Interpreter &I, RootVector &A) {
    I.emitOutput(displayToString(I.heap(), A[0]));
    return Value::voidV();
  });
  Def("write", 1, 1, [](Interpreter &I, RootVector &A) {
    I.emitOutput(writeToString(I.heap(), A[0]));
    return Value::voidV();
  });
  Def("newline", 0, 0, [](Interpreter &I, RootVector &) {
    I.emitOutput("\n");
    return Value::voidV();
  });
  Def("error", 1, -1, [](Interpreter &I, RootVector &A) {
    std::string Msg = displayToString(I.heap(), A[0]);
    for (size_t J = 1; J != A.size(); ++J)
      Msg += " " + writeToString(I.heap(), A[J]);
    return I.signalError(Msg);
  });

  //===--- Control ----------------------------------------------------------===//
  Def("apply", 2, 2, [](Interpreter &I, RootVector &A) {
    Root Proc(I.heap(), A[0]);
    RootVector CallArgs(I.heap());
    for (Value L = A[1]; L.isPair(); L = pairCdr(L))
      CallArgs.push_back(pairCar(L));
    return I.applyProcedure(Proc, CallArgs);
  });
  // Runs a thunk inside a fresh request scope (DESIGN.md §13): every
  // allocation in its dynamic extent lands in the scope's private
  // nursery, and at extent exit only values reachable from outside the
  // scope graduate out; the rest is reclaimed without being traced.
  Def("call-in-new-scope", 1, 1, [](Interpreter &I, RootVector &A) {
    Heap &H = I.heap();
    Root Proc(H, A[0]);
    // Declared before the extent: the Root keeps the thunk's result an
    // evacuation root when the extent destructor runs closeScope, so
    // the returned structure graduates instead of dying with the scope.
    Root Result(H, Value::voidV());
    {
      ScopedExtent Extent(H);
      RootVector NoArgs(H);
      Result = I.applyProcedure(Proc, NoArgs);
    }
    return Result.get();
  });
  Def("scope-depth", 0, 0, [](Interpreter &I, RootVector &) {
    return Value::fixnum(I.heap().scopeDepth());
  });

  //===--- Ports (Section 3's substrate) ------------------------------------===//
  Def("open-input-file", 1, 1, [](Interpreter &I, RootVector &A) {
    std::string Path = stringArg(I, A[0], "open-input-file");
    if (I.hadError())
      return Value::voidV();
    if (!I.fileSystem().exists(Path))
      return I.signalError("open-input-file: no such file: " + Path);
    intptr_t Id = I.ports().openInput(Path);
    return I.heap().makePortHandle(
        Id, static_cast<intptr_t>(PortKind::Input));
  });
  Def("open-output-file", 1, 1, [](Interpreter &I, RootVector &A) {
    std::string Path = stringArg(I, A[0], "open-output-file");
    if (I.hadError())
      return Value::voidV();
    intptr_t Id = I.ports().openOutput(Path);
    return I.heap().makePortHandle(
        Id, static_cast<intptr_t>(PortKind::Output));
  });
  Def("close-input-port", 1, 1, [](Interpreter &I, RootVector &A) {
    intptr_t Id = portArg(I, A[0], "close-input-port");
    if (I.hadError())
      return Value::voidV();
    I.ports().close(Id);
    return Value::voidV();
  });
  Def("close-output-port", 1, 1, [](Interpreter &I, RootVector &A) {
    intptr_t Id = portArg(I, A[0], "close-output-port");
    if (I.hadError())
      return Value::voidV();
    I.ports().close(Id);
    return Value::voidV();
  });
  Def("flush-output-port", 1, 1, [](Interpreter &I, RootVector &A) {
    intptr_t Id = portArg(I, A[0], "flush-output-port");
    if (I.hadError())
      return Value::voidV();
    I.ports().flush(Id);
    return Value::voidV();
  });
  Def("port?", 1, 1, [](Interpreter &, RootVector &A) {
    return Value::boolean(isPortHandle(A[0]));
  });
  Def("input-port?", 1, 1, [](Interpreter &I, RootVector &A) {
    (void)I;
    return Value::boolean(
        isPortHandle(A[0]) &&
        objectField(A[0], PortDirection).asFixnum() ==
            static_cast<intptr_t>(PortKind::Input));
  });
  Def("output-port?", 1, 1, [](Interpreter &I, RootVector &A) {
    (void)I;
    return Value::boolean(
        isPortHandle(A[0]) &&
        objectField(A[0], PortDirection).asFixnum() ==
            static_cast<intptr_t>(PortKind::Output));
  });
  Def("port-open?", 1, 1, [](Interpreter &I, RootVector &A) {
    intptr_t Id = portArg(I, A[0], "port-open?");
    if (I.hadError())
      return Value::voidV();
    return Value::boolean(I.ports().isOpen(Id));
  });
  Def("read-char", 1, 1, [](Interpreter &I, RootVector &A) {
    intptr_t Id = portArg(I, A[0], "read-char");
    if (I.hadError())
      return Value::voidV();
    int C = I.ports().readChar(Id);
    if (C < 0)
      return Value::eof();
    return Value::character(static_cast<uint32_t>(C));
  });
  Def("write-char", 2, 2, [](Interpreter &I, RootVector &A) {
    if (!A[0].isChar())
      return I.signalError("write-char: expected a character");
    intptr_t Id = portArg(I, A[1], "write-char");
    if (I.hadError())
      return Value::voidV();
    I.ports().writeChar(Id, static_cast<char>(A[0].charCode()));
    return Value::voidV();
  });
  Def("write-string", 2, 2, [](Interpreter &I, RootVector &A) {
    std::string S = stringArg(I, A[0], "write-string");
    intptr_t Id = portArg(I, A[1], "write-string");
    if (I.hadError())
      return Value::voidV();
    I.ports().writeString(Id, S);
    return Value::voidV();
  });
  Def("open-port-count", 0, 0, [](Interpreter &I, RootVector &) {
    return Value::fixnum(
        static_cast<intptr_t>(I.ports().openPortCount()));
  });
  // Test/example helpers over the hermetic file system.
  Def("make-file", 2, 2, [](Interpreter &I, RootVector &A) {
    std::string Path = stringArg(I, A[0], "make-file");
    std::string Contents = stringArg(I, A[1], "make-file");
    if (I.hadError())
      return Value::voidV();
    I.fileSystem().write(Path, Contents);
    return Value::voidV();
  });
  Def("file-contents", 1, 1, [](Interpreter &I, RootVector &A) {
    std::string Path = stringArg(I, A[0], "file-contents");
    if (I.hadError())
      return Value::voidV();
    std::string Out;
    if (!I.fileSystem().read(Path, Out))
      return I.signalError("file-contents: no such file: " + Path);
    return I.heap().makeString(Out);
  });
  Def("file-exists?", 1, 1, [](Interpreter &I, RootVector &A) {
    std::string Path = stringArg(I, A[0], "file-exists?");
    if (I.hadError())
      return Value::voidV();
    return Value::boolean(I.fileSystem().exists(Path));
  });
}

void Interpreter::loadPrelude() {
  static const char Prelude[] = R"scheme(
    (define (cadr p) (car (cdr p)))
    (define (cddr p) (cdr (cdr p)))
    (define (caddr p) (car (cdr (cdr p))))
    (define (caar p) (car (car p)))
    (define (cdar p) (cdr (car p)))
    (define (map f lst)
      (if (null? lst)
          '()
          (cons (f (car lst)) (map f (cdr lst)))))
    (define (for-each f lst)
      (if (null? lst)
          (if #f #f)
          (begin (f (car lst)) (for-each f (cdr lst)))))
    (define (assoc-ref alist key)
      (let ((entry (assq key alist)))
        (if entry (cdr entry) #f)))
    (define (filter pred lst)
      (cond ((null? lst) '())
            ((pred (car lst)) (cons (car lst) (filter pred (cdr lst))))
            (else (filter pred (cdr lst)))))
    (define (even? n) (zero? (modulo n 2)))
    (define (odd? n) (not (even? n)))
    (define (abs n) (if (< n 0) (- n) n))
    (define (max2 a b) (if (> a b) a b))
    (define (min2 a b) (if (< a b) a b))
    (define (list-tail lst k)
      (if (zero? k) lst (list-tail (cdr lst) (- k 1))))
    (define (member x lst)
      (cond ((null? lst) #f)
            ((equal? x (car lst)) lst)
            (else (member x (cdr lst)))))
    (define (assv x alist) (assq x alist))
    ;; The footnote's distinct weak accessors: "some Scheme and Lisp
    ;; systems have a distinct weak-pair type and related operations
    ;; such as weak-car and weak-cdr." Here weak pairs answer to the
    ;; normal operations, so these are synonyms.
    (define (weak-car p) (car p))
    (define (weak-cdr p) (cdr p))
  )scheme";
  evalString(Prelude);
  GENGC_ASSERT(!ErrorFlag, "prelude must load cleanly");
}
