//===- perfbench/bench/VmPrograms.cpp - Bytecode VM program suite -------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `vm-programs`: one thread, one Heap, the bytecode VM running a fixed
/// suite of programs, closed loop, over a live set of tens of MB built at
/// setup. The suite: list churn, closure and environment-frame churn,
/// vector-set! fills into the old live set, the paper's Figure 1 guarded
/// hash table over weak-cons (with a full collection per run), and fib.
/// Each program's result is checked against a value computed here in
/// C++, never by the VM.
///
/// Why: it loads the mutator fast paths and full collections over a
/// large heap and skips every src/runtime layer, so it is the bypass
/// workload for runtime changes (and sessions is the bypass for
/// full-pause changes).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Guardian.h"
#include "gc/Roots.h"
#include "object/Layout.h"
#include "scheme/Interpreter.h"
#include "scheme/VM.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

using namespace gengc;

namespace perfbench {
namespace {

const char *Suite = R"SCM(
(define (build n)
  (let loop ([i 0] [acc '()]) (if (= i n) acc (loop (+ i 1) (cons i acc)))))
(define (sum l)
  (let loop ([l l] [acc 0]) (if (null? l) acc (loop (cdr l) (+ acc (car l))))))
(define (list-churn n) (sum (build n)))

(define (make-adder k) (lambda (x) (+ x k)))
(define (closure-churn n)
  (let loop ([i 0] [acc 0])
    (if (= i n)
        acc
        (let ([f (make-adder i)] [one 1])
          (loop (+ i 1) (+ acc (f one)))))))

(define live #f)
(define (set-live! v) (set! live v))
(define (vector-fill k start)
  (let ([n (vector-length live)])
    (let loop ([j 0] [acc 0])
      (if (= j k)
          acc
          (let* ([slot (modulo (+ start j) n)] [old (vector-ref live slot)])
            (vector-set! live slot (cons j (cdr old)))
            (loop (+ j 1) (+ acc (+ j (car (cdr old))))))))))

(define make-guarded-hash-table
  (lambda (hash size)
    (let ([g (make-guardian)] [v (make-vector size '())] [drained 0])
      (lambda (key value)
        (let loop ([z (g)])
          (if z
              (begin
                (set! drained (+ drained 1))
                (let ([h (hash z size)])
                  (let ([bucket (vector-ref v h)])
                    (vector-set! v h (remq (assq z bucket) bucket))))
                (loop (g)))))
        (if (eq? key 'drained)
            drained
            (let ([h (hash key size)])
              (let ([bucket (vector-ref v h)])
                (let ([a (assq key bucket)])
                  (if a
                      (cdr a)
                      (let ([a (weak-cons key value)])
                        (vector-set! v h (cons a bucket))
                        (g key)
                        value))))))))))
(define (make-keys i m acc)
  (if (= i m) acc (make-keys (+ i 1) m (cons (cons i 'key) acc))))
(define (insert-all table keys)
  (if (null? keys) 0 (begin (table (car keys) (car (car keys)))
                            (insert-all table (cdr keys)))))
(define (drop-first keys d) (if (= d 0) keys (drop-first (cdr keys) (- d 1))))
(define (count-present table keys)
  (let loop ([k keys] [n 0])
    (if (null? k)
        n
        (loop (cdr k) (if (= (table (car k) -1) (car (car k))) (+ n 1) n)))))
(define (guarded-table m d)
  (let ([table (make-guarded-hash-table
                 (lambda (k size) (modulo (car k) size)) 64)])
    (let ([kept (let ([keys (make-keys 0 m '())])
                  (insert-all table keys)
                  (drop-first keys d))])
      (collect 3)
      (let ([present (count-present table kept)])
        (+ (* (table 'drained #f) 100000) present)))))

(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
)SCM";

struct Program {
  const char *Name;
  std::vector<intptr_t> Args;
  intptr_t Expected;
};

intptr_t fibOf(intptr_t N) { return N < 2 ? N : fibOf(N - 1) + fibOf(N - 2); }

struct Sizes {
  intptr_t LiveSlots, LiveLen;
};

/// The suite's arguments from the seed, and each program's expected
/// result computed in C++.
std::vector<Program> makeSuite(uint64_t Seed, const Sizes &Z, bool Smoke) {
  Rng R(Seed);
  const intptr_t Scale = Smoke ? 10 : 1;
  const intptr_t N1 = (8000 + static_cast<intptr_t>(R.below(800))) / Scale;
  const intptr_t N2 = (8000 + static_cast<intptr_t>(R.below(800))) / Scale;
  const intptr_t K = (6000 + static_cast<intptr_t>(R.below(600))) / Scale;
  const intptr_t Start = static_cast<intptr_t>(R.below(Z.LiveSlots));
  const intptr_t M = (1000 + static_cast<intptr_t>(R.below(100))) / Scale;
  const intptr_t D = M / 4 + static_cast<intptr_t>(R.below(M / 4));
  const intptr_t F = Smoke ? 12 : 18;
  intptr_t Fill = 0;
  for (intptr_t J = 0; J != K; ++J) {
    const intptr_t Slot = (Start + J) % Z.LiveSlots;
    Fill += J + (Slot * 7 + Z.LiveLen - 2) % 1000;
  }
  return {{"list-churn", {N1}, N1 * (N1 - 1) / 2},
          {"closure-churn", {N2}, N2 + N2 * (N2 - 1) / 2},
          {"vector-fill", {K, Start}, Fill},
          {"guarded-table", {M, D}, D * 100000 + (M - D)},
          {"fib", {F}, fibOf(F)}};
}

/// One heap with the suite compiled and the live set built.
struct Machine {
  Heap H; // Shipped HeapConfig defaults.
  PauseLog Pauses;
  Interpreter I{H};
  VirtualMachine VM{I};
  Guardian Tokens{H};
  Root TokenTag{H, H.intern("run-token")};
  RootVector Procs{H};
  double CompileMs = 0;
  std::string Error;

  Machine(const std::vector<Program> &Suite, const Sizes &Z) {
    Pauses.attach(H);
    const int64_t T0 = nowNs();
    VM.evalString(::perfbench::Suite);
    CompileMs = static_cast<double>(nowNs() - T0) / 1e6;
    for (const Program &P : Suite)
      Procs.push_back(VM.evalString(P.Name));
    // The live set: slot s holds a list whose p-th cell from the tail is
    // (s * 7 + p) mod 1000, built here and handed to the VM, then
    // promoted to the oldest generation.
    RootVector Live(H);
    Live.push_back(H.makeVector(static_cast<size_t>(Z.LiveSlots), Value::nil()));
    for (intptr_t S = 0; S != Z.LiveSlots; ++S) {
      Root L(H, Value::nil());
      for (intptr_t P = 0; P != Z.LiveLen; ++P)
        L = H.cons(Value::fixnum((S * 7 + P) % 1000), L.get());
      H.vectorSet(Live[0], static_cast<size_t>(S), L);
    }
    Root SetLive(H, VM.evalString("set-live!"));
    if (!VM.hadError())
      VM.applyClosure(SetLive, Live);
    H.collectFull();
    if (VM.hadError())
      Error = VM.errorMessage();
  }
};

} // namespace

Report runVmPrograms(const RunOptions &O) {
  Report R;
  const Sizes Z = O.Smoke ? Sizes{512, 16} : Sizes{24576, 64};
  const std::vector<Program> Suite = makeSuite(O.Seed, Z, O.Smoke);

  std::vector<double> SetupS, CompileMs;
  std::unique_ptr<Machine> M;
  const int Reps = O.Smoke ? 2 : 3;
  for (int I = 0; I != Reps; ++I) {
    M.reset();
    const double Cpu0 = processCpuSeconds();
    M = std::make_unique<Machine>(Suite, Z);
    SetupS.push_back(processCpuSeconds() - Cpu0);
    CompileMs.push_back(M->CompileMs);
  }
  R.check(M->Error.empty(), "vm-programs setup failed: " + M->Error);
  EndToEnd E;
  E.SetupS = setupMedian(R, SetupS);
  E.SetupSamples = SetupS.size();
  R.Notes.push_back("live set: " + std::to_string(Z.LiveSlots) +
                    " lists of " + std::to_string(Z.LiveLen) + " pairs, " +
                    std::to_string(M->H.liveBytes() / (1024 * 1024)) +
                    " MiB live after setup");

  Heap &H = M->H;
  std::vector<std::vector<double>> PerProgram(Suite.size());
  std::vector<uint64_t> Wrong(Suite.size(), 0);
  std::unordered_map<intptr_t, int64_t> TokenDrop;
  intptr_t NextToken = 0;
  uint64_t Passes = 0, InstrFirstPass = 0, Delivered = 0;
  const HeapSnapshot Start0 = snapshotHeap(H);
  const double Cpu0 = processCpuSeconds();
  const int64_t Start = nowNs();
  const int64_t End = Start + static_cast<int64_t>(O.Seconds * 1e9);
  while (nowNs() < End || Passes == 0) {
    const uint64_t Instr0 = M->VM.instructionsExecuted();
    for (size_t P = 0; P != Suite.size(); ++P) {
      setRequest(P + 1);
      ++R.Attempted;
      // A guarded token held for the run and dropped after it: its
      // guardian delivery measures how promptly clean-up follows a drop.
      Root Token(H, traceAlloc(H, [&] {
                   return H.makeRecord(M->TokenTag, 2,
                                       Value::fixnum(NextToken));
                 }));
      {
        Span S(SpanKind::GuardianProtect);
        M->Tokens.protect(Token);
      }
      RootVector Args(H);
      for (intptr_t A : Suite[P].Args)
        Args.push_back(Value::fixnum(A));
      const size_t Pauses0 = M->Pauses.Pauses.size();
      const int64_t Cpu0 = O.Traced ? threadCpuNs() : 0;
      const int64_t T0 = nowNs();
      Value V;
      {
        Span S(SpanKind::VmRun);
        V = M->VM.applyClosure(M->Procs[P], Args);
      }
      const int64_t T1 = nowNs();
      if (O.Traced && M->Pauses.Pauses.size() != Pauses0) {
        // The mutator is on-CPU throughout a run, so the run's off-CPU
        // time is time its collections spent waiting.
        int64_t PauseNs = 0;
        for (size_t I = Pauses0; I != M->Pauses.Pauses.size(); ++I)
          PauseNs += static_cast<int64_t>(M->Pauses.Pauses[I].DurNs);
        const int64_t OffCpu = (T1 - T0) - (threadCpuNs() - Cpu0);
        noteCollectingAlloc(PauseNs, std::max<int64_t>(1, PauseNs - OffCpu));
      }
      PerProgram[P].push_back(static_cast<double>(T1 - T0) / 1e6);
      E.LatencyMs.push_back(static_cast<double>(T1 - T0) / 1e6);
      const intptr_t Want = Suite[P].Expected + (O.Canary ? 1 : 0);
      if (M->VM.hadError() || !V.isFixnum() || V.asFixnum() != Want) {
        ++Wrong[P];
        ++R.Failed;
        M->VM.clearError();
      }
      TokenDrop[NextToken++] = nowNs();
      Token = Value::falseV();
      Span S(SpanKind::GuardianDrain);
      Delivered += M->Tokens.drain([&](Value Tok) {
        const intptr_t Id = objectField(Tok, 1).asFixnum();
        E.CleanupLagMs.push_back(
            static_cast<double>(nowNs() - TokenDrop[Id]) / 1e6);
        TokenDrop.erase(Id);
      });
    }
    if (Passes++ == 0)
      InstrFirstPass = M->VM.instructionsExecuted() - Instr0;
  }
  const int64_t Stop = nowNs();
  setRequest(0);
  E.CpuSeconds = processCpuSeconds() - Cpu0;
  E.Ops = R.Attempted;
  E.ThroughputPerS =
      static_cast<double>(R.Attempted) / (static_cast<double>(Stop - Start) / 1e9);
  reportEndToEnd(R, E);
  reportPauses(R, {&M->Pauses}, Start, Stop, false);

  std::vector<double> SuiteMs;
  for (uint64_t Pass = 0; Pass != Passes; ++Pass) {
    double Ms = 0;
    for (const auto &P : PerProgram)
      Ms += P[Pass];
    SuiteMs.push_back(Ms);
  }
  char Buf[200];
  std::snprintf(Buf, sizeof Buf, "vm_suite_ms %.3f ms (median of %llu passes)",
                median(SuiteMs), static_cast<unsigned long long>(Passes));
  R.Notes.push_back(Buf);

  for (size_t P = 0; P != Suite.size(); ++P)
    R.check(Wrong[P] == 0,
            std::string(Suite[P].Name) + ": " + std::to_string(Wrong[P]) +
                " runs returned a result other than " +
                std::to_string(Suite[P].Expected),
            /*CountsOp=*/false);

  if (!O.Traced)
    return R;

  const TraceSummary T = summarizeTrace();
  reportHeapLayers(R, T, {HeapWindow{Start0, snapshotHeap(H)}}, {&M->Pauses},
                   Start, Stop, Delivered);
  R.set("scheme.compile.ms", median(CompileMs), "ms", CompileMs.size());
  R.set("scheme.vm.instructions", static_cast<double>(InstrFirstPass), "count",
        1);
  for (size_t P = 0; P != Suite.size(); ++P)
    R.set(std::string("scheme.vm.") + Suite[P].Name + ".ms",
          median(PerProgram[P]), "ms", PerProgram[P].size());
  return R;
}

} // namespace perfbench
