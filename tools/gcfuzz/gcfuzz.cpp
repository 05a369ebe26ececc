//===- tools/gcfuzz/gcfuzz.cpp - Differential GC fuzzer CLI ---------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
//
// Runs random mutator traces against the real Heap and the exact
// reachability shadow model simultaneously (see src/testing/). On
// divergence, greedily shrinks the trace and writes a replay file.
//
//   gcfuzz --seed-corpus                 fixed-seed smoke corpus (CI)
//   gcfuzz --seed N [--config NAME]      one seed
//   gcfuzz --traces N [--config all]     N seeds per config
//   gcfuzz --trace-replay FILE           replay a saved trace
//   gcfuzz --fault drop-resurrection     inject a liveness bug (must be
//                                        caught; exercises the oracle)
//   gcfuzz --elide on|off                force barrier elision on/off for
//                                        the trace heaps
//   gcfuzz --scoped on                   extend the trace alphabet with
//                                        scope-open / scope-close /
//                                        alloc-in-scope (request-scoped
//                                        ephemeral generations); in
//                                        --vm-diff mode, runs half the
//                                        generated forms inside
//                                        (call-in-new-scope ...)
//   gcfuzz --donation on                 extend the alphabet further with
//                                        donate-send / donate-receive /
//                                        donate-drop (zero-copy segment
//                                        donation): the runner keeps an
//                                        ownership map of every donated
//                                        exchange segment and audits it
//                                        after each donation op and
//                                        collection
//   gcfuzz --vm-diff N                   N random Scheme programs, each
//                                        run elide-on vs elide-off in
//                                        lockstep; outputs must agree
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scheme/Printer.h"
#include "scheme/VM.h"
#include "testing/TraceRunner.h"

using namespace gengc;
using namespace gengc::gcfuzz;

namespace {

struct Options {
  uint64_t Seed = 1;
  bool SeedGiven = false;
  uint64_t Traces = 0;
  size_t Ops = 140;
  std::string ConfigName = "all";
  std::string Fault = "none";
  bool SeedCorpus = false;
  std::string ReplayFile;
  std::string OutDir = ".";
  bool NoShrink = false;
  std::string Elide; ///< "", "on", or "off": override ElideBarriers.
  bool Scoped = false; ///< Scoped trace alphabet / scoped vm-diff programs.
  bool Donation = false; ///< Donation trace alphabet (implies scoped ops).
  uint64_t VmDiff = 0; ///< Number of vm-diff programs (0 = off).
};

void usage() {
  std::fprintf(
      stderr,
      "usage: gcfuzz [--seed N] [--traces N] [--ops K]\n"
      "              [--config NAME|all] [--fault none|drop-resurrection|"
      "break-weak|unsound-elision|leak-scope-escape|"
      "leak-donated-segment]\n"
      "              [--elide on|off] [--scoped on|off] [--donation "
      "on|off]\n"
      "              [--vm-diff N] [--seed-corpus]\n"
      "              [--trace-replay FILE] [--out DIR] [--no-shrink]\n"
      "configs (--config):");
  // Enumerate the live config list so this help text cannot drift from
  // standardConfigs() again.
  for (const FuzzConfig &K : standardConfigs())
    std::fprintf(stderr, " %s", K.Name.c_str());
  std::fprintf(stderr, " all\n");
}

bool applyFault(const std::string &Name, HeapConfig &Cfg) {
  if (Name == "none")
    return true;
  if (Name == "drop-resurrection") {
    Cfg.InjectedFault = GcFaultInjection::DropFirstResurrection;
    return true;
  }
  if (Name == "break-weak") {
    Cfg.InjectedFault = GcFaultInjection::BreakLiveWeakCar;
    return true;
  }
  if (Name == "unsound-elision") {
    Cfg.InjectedFault = GcFaultInjection::UnsoundElision;
    return true;
  }
  if (Name == "leak-scope-escape") {
    Cfg.InjectedFault = GcFaultInjection::LeakScopeEscape;
    return true;
  }
  if (Name == "leak-donated-segment") {
    Cfg.InjectedFault = GcFaultInjection::LeakDonatedSegment;
    return true;
  }
  return false;
}

std::vector<FuzzConfig> selectConfigs(const Options &Opt) {
  if (Opt.ConfigName == "all")
    return standardConfigs();
  FuzzConfig C;
  if (!findConfig(Opt.ConfigName, C)) {
    std::fprintf(stderr, "gcfuzz: unknown config '%s' (have:",
                 Opt.ConfigName.c_str());
    for (const FuzzConfig &K : standardConfigs())
      std::fprintf(stderr, " %s", K.Name.c_str());
    std::fprintf(stderr, ")\n");
    std::exit(2);
  }
  return {C};
}

/// Shrinks, reports, and saves a diverging trace. Returns the exit code.
int reportDivergence(const Trace &T, const FuzzConfig &Cfg,
                     const RunResult &R, const Options &Opt) {
  std::fprintf(stderr,
               "gcfuzz: DIVERGENCE under config '%s' (seed %llu, %zu "
               "ops)\n  %s\n",
               Cfg.Name.c_str(),
               static_cast<unsigned long long>(T.Seed), T.Ops.size(),
               R.Message.c_str());
  Trace Minimal = T;
  if (!Opt.NoShrink) {
    Minimal = shrinkTrace(T, Cfg.Config);
    RunResult MR = runTrace(Minimal, Cfg.Config);
    std::fprintf(stderr,
                 "gcfuzz: shrunk %zu -> %zu ops\n  %s\n", T.Ops.size(),
                 Minimal.Ops.size(), MR.Message.c_str());
  }
  const std::string Path = Opt.OutDir + "/gcfuzz-failure-" +
                           Cfg.Name + "-seed" +
                           std::to_string(T.Seed) + ".trace";
  std::ofstream OS(Path);
  if (OS) {
    OS << "# gcfuzz divergence under config '" << Cfg.Name << "'\n"
       << "# " << R.Message << "\n"
       << serializeTrace(Minimal);
    std::fprintf(stderr, "gcfuzz: wrote %s (replay with --trace-replay)\n",
                 Path.c_str());
  }
  return 1;
}

int runSeeds(const std::vector<FuzzConfig> &Configs, uint64_t FirstSeed,
             uint64_t Count, const Options &Opt) {
  uint64_t TotalCollections = 0, TotalTraces = 0;
  for (const FuzzConfig &Cfg : Configs) {
    for (uint64_t S = FirstSeed; S != FirstSeed + Count; ++S) {
      Trace T = generateTrace(S, Opt.Ops, Opt.Scoped, Opt.Donation);
      RunResult R = runTrace(T, Cfg.Config);
      if (R.Diverged)
        return reportDivergence(T, Cfg, R, Opt);
      TotalCollections += R.Collections;
      ++TotalTraces;
    }
    std::printf("gcfuzz: config '%s': %llu traces clean\n",
                Cfg.Name.c_str(), static_cast<unsigned long long>(Count));
  }
  std::printf("gcfuzz: OK — %llu traces, %llu collections cross-checked, "
              "zero divergence\n",
              static_cast<unsigned long long>(TotalTraces),
              static_cast<unsigned long long>(TotalCollections));
  return 0;
}

//===----------------------------------------------------------------------===//
// VM differential mode: random type-safe Scheme programs executed twice
// — barrier elision on vs off — on otherwise identical fresh heaps. The
// elision pass only changes which stores take the write-barrier path,
// so any observable difference (printed results, errors, a verifier or
// heap-verify abort) is an elision soundness bug. Programs lean on the
// constructs the dataflow pass actually classifies: letrec inits,
// set! of locals at several depths, named-let loops allocating frames
// and pairs, global define/set!, and vector mutation.
//===----------------------------------------------------------------------===//

/// xorshift64* — deterministic across platforms, seeded per program.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ULL | 1) {}
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1DULL;
  }
  unsigned below(unsigned N) { return next() % N; }
};

class ProgramGen {
public:
  ProgramGen(uint64_t Seed, bool Scoped) : R(Seed), Scoped(Scoped) {}

  /// One program: a list of top-level forms evaluated in order.
  std::vector<std::string> generate() {
    std::vector<std::string> Forms;
    const unsigned N = 6 + R.below(6);
    for (unsigned I = 0; I != N; ++I) {
      const unsigned Kind = R.below(5);
      if (Kind == 0) {
        std::string G = "g" + std::to_string(Globals.size());
        Forms.push_back("(define " + G + " " + num(2) + ")");
        Globals.push_back(G);
      } else if (Kind == 1 && !Globals.empty()) {
        Forms.push_back("(set! " + Globals[R.below(Globals.size())] +
                        " " + num(2) + ")");
      } else {
        std::string E = any(3);
        // Scoped mode: run half the expression forms inside a request
        // scope. The result escapes through the primitive's return
        // value (and, when the body mutates a global, through the
        // barriered global store), so elision × scoping must still
        // print identical values. The draw is guarded so unscoped
        // programs keep their historical byte-identical RNG stream.
        if (Scoped && R.below(2))
          E = "(call-in-new-scope (lambda () " + E + "))";
        Forms.push_back(E);
      }
    }
    // End every program by forcing full collections and re-reading the
    // globals, so values that survived promotion are re-observed.
    Forms.push_back("(collect)");
    for (const std::string &G : Globals)
      Forms.push_back(G);
    return Forms;
  }

private:
  Rng R;
  bool Scoped;
  std::vector<std::string> Globals;
  std::vector<std::string> NumVars; ///< In-scope numeric locals.
  std::vector<std::string> AnyVars; ///< In-scope locals of any type.
  unsigned NextVar = 0;

  std::string fresh() { return "v" + std::to_string(NextVar++); }
  std::string lit() { return std::to_string(R.below(100)); }

  /// An expression guaranteed to evaluate to a number.
  std::string num(int Depth) {
    if (Depth <= 0) {
      const unsigned C = R.below(3 + (NumVars.empty() ? 0 : 2) +
                                 (Globals.empty() ? 0 : 1));
      if (C < 3)
        return lit();
      if (C < 5 && !NumVars.empty())
        return NumVars[R.below(NumVars.size())];
      return Globals[R.below(Globals.size())];
    }
    switch (R.below(9)) {
    case 0:
      return "(+ " + num(Depth - 1) + " " + num(Depth - 1) + ")";
    case 1:
      return "(- " + num(Depth - 1) + " " + num(Depth - 1) + ")";
    case 2:
      return "(* " + num(Depth - 1) + " " + std::to_string(R.below(7)) +
             ")";
    case 3:
      return "(if (< " + num(Depth - 1) + " " + num(Depth - 1) + ") " +
             num(Depth - 1) + " " + num(Depth - 1) + ")";
    case 4: { // let over a numeric body.
      std::string V = fresh();
      std::string Init = num(Depth - 1);
      NumVars.push_back(V);
      std::string Body = num(Depth - 1);
      NumVars.pop_back();
      return "(let ([" + V + " " + Init + "]) " + Body + ")";
    }
    case 5: { // letrec + set!: LocalSet both elided and barriered.
      std::string V = fresh();
      std::string Init = num(Depth - 1);
      NumVars.push_back(V);
      std::string Update = num(Depth - 1);
      std::string Body = num(Depth - 1);
      NumVars.pop_back();
      return "(letrec ([" + V + " " + Init + "]) (set! " + V + " " +
             Update + ") (+ " + V + " " + Body + "))";
    }
    case 6: { // Named-let summation loop (fresh frame per iteration).
      std::string Lp = "lp" + std::to_string(NextVar++);
      std::string I = fresh(), Acc = fresh();
      std::string Seed = num(Depth - 1); // Acc not in scope for its init.
      return "(let " + Lp + " ([" + I + " " +
             std::to_string(4 + R.below(24)) + "] [" + Acc + " " + Seed +
             "]) (if (< " + I + " 1) " + Acc + " (" + Lp + " (- " + I +
             " 1) (+ " + Acc + " " + I + "))))";
    }
    case 7: { // Lambda application with a depth-0 set! inside.
      std::string A = fresh(), B = fresh();
      NumVars.push_back(A);
      NumVars.push_back(B);
      std::string Update = num(Depth - 1);
      NumVars.pop_back();
      NumVars.pop_back();
      return "((lambda (" + A + " " + B + ") (set! " + A + " " + Update +
             ") (+ " + A + " " + B + ")) " + num(Depth - 1) + " " +
             num(Depth - 1) + ")";
    }
    default: { // Vector round-trip: init fill + vector-set! + vector-ref.
      std::string W = "w" + std::to_string(NextVar++);
      return "(let ([" + W + " (make-vector 4 " + num(Depth - 1) +
             ")]) (vector-set! " + W + " " + std::to_string(R.below(4)) +
             " " + num(Depth - 1) + ") (vector-ref " + W + " " +
             std::to_string(R.below(4)) + "))";
    }
    }
  }

  /// An expression of any printable type (numbers, pairs, vectors,
  /// booleans, symbols).
  std::string any(int Depth) {
    if (Depth <= 0) {
      switch (R.below(4 + (AnyVars.empty() ? 0 : 2))) {
      case 0:
        return "(quote s" + std::to_string(R.below(8)) + ")";
      case 1:
        return R.below(2) ? "#t" : "#f";
      case 2:
        return "(quote ())";
      case 3:
        return lit();
      default:
        return AnyVars[R.below(AnyVars.size())];
      }
    }
    switch (R.below(8)) {
    case 0:
      return num(Depth - 1);
    case 1:
      return "(cons " + any(Depth - 1) + " " + any(Depth - 1) + ")";
    case 2:
      return "(list " + any(Depth - 1) + " " + any(Depth - 1) + " " +
             any(Depth - 1) + ")";
    case 3: { // Mutate a pair with a separately built value. The stored
              // expression must never see the container's own variable:
              // a self-referential structure would hang the printer.
      std::string P = fresh();
      std::string Stored = any(Depth - 1);
      return "(let ([" + P + " (cons " + any(Depth - 1) + " " +
             any(Depth - 1) + ")]) (set-car! " + P + " " + Stored +
             ") " + P + ")";
    }
    case 4: { // Named-let cons loop: the elision showcase workload.
      std::string Lp = "lp" + std::to_string(NextVar++);
      std::string I = fresh(), Acc = fresh();
      return "(let " + Lp + " ([" + I + " " +
             std::to_string(4 + R.below(20)) + "] [" + Acc +
             " (quote ())]) (if (< " + I + " 1) " + Acc + " (" + Lp +
             " (- " + I + " 1) (cons " + I + " " + Acc + "))))";
    }
    case 5: { // Vector holding heap values, mutated after creation.
      std::string V = fresh();
      std::string Stored = any(Depth - 1); // V not in scope: no cycles.
      return "(let ([" + V + " (make-vector 3 " + any(Depth - 1) +
             ")]) (vector-set! " + V + " " + std::to_string(R.below(3)) +
             " " + Stored + ") " + V + ")";
    }
    case 6: { // A reusable binding: later stores may reference it, but
              // only into containers created after it — acyclic.
      std::string X = fresh();
      std::string Init = any(Depth - 1);
      AnyVars.push_back(X);
      std::string Rest = any(Depth - 1);
      AnyVars.pop_back();
      return "(let ([" + X + " " + Init + "]) (list " + X + " " + Rest +
             "))";
    }
    default:
      return "(reverse (list " + any(Depth - 1) + " " + any(Depth - 1) +
             "))";
    }
  }
};

struct VmRun {
  bool Ok = true;
  std::string Output; ///< One printed result (or error) per form.
  uint64_t BarriersExecuted = 0;
  uint64_t BarriersElided = 0;
};

VmRun runVmProgram(const std::vector<std::string> &Forms, bool Elide) {
  HeapConfig Cfg;
  Cfg.ArenaBytes = 64u * 1024 * 1024;
  Cfg.ElideBarriers = Elide;
  // Always verify: an unsound claim must abort here, in the fuzzer,
  // not survive into a divergence report that is hard to attribute.
  Cfg.VerifyElision = true;
  Heap H(Cfg);
  Interpreter I(H);
  VirtualMachine VM(I);
  VmRun R;
  for (const std::string &F : Forms) {
    Value V = VM.evalString(F);
    if (VM.hadError()) {
      R.Output += "error: " + VM.errorMessage() + "\n";
      VM.clearError();
    } else {
      R.Output += writeToString(H, V) + "\n";
    }
  }
  H.collectFull();
  H.verifyHeap();
  R.BarriersExecuted = H.barriersExecuted();
  R.BarriersElided = H.barriersElided();
  return R;
}

int runVmDiff(const Options &Opt) {
  uint64_t ElidedTotal = 0, ExecutedTotal = 0;
  const uint64_t First = Opt.SeedGiven ? Opt.Seed : 1;
  for (uint64_t Seed = First; Seed != First + Opt.VmDiff; ++Seed) {
    ProgramGen Gen(Seed, Opt.Scoped);
    const std::vector<std::string> Forms = Gen.generate();
    if (std::getenv("GCFUZZ_VM_DUMP"))
      for (const std::string &F : Forms)
        std::fprintf(stderr, "%s\n", F.c_str());
    VmRun On = runVmProgram(Forms, /*Elide=*/true);
    VmRun Off = runVmProgram(Forms, /*Elide=*/false);
    if (On.Output != Off.Output) {
      std::fprintf(stderr,
                   "gcfuzz: VM DIVERGENCE (seed %llu): elision changed "
                   "program behavior\n",
                   static_cast<unsigned long long>(Seed));
      const std::string Path = Opt.OutDir + "/gcfuzz-vmdiff-seed" +
                               std::to_string(Seed) + ".scm";
      std::ofstream OS(Path);
      for (const std::string &F : Forms)
        OS << F << "\n";
      OS << ";; elide-on:\n";
      std::istringstream OnS(On.Output), OffS(Off.Output);
      std::string Line;
      while (std::getline(OnS, Line))
        OS << ";;   " << Line << "\n";
      OS << ";; elide-off:\n";
      while (std::getline(OffS, Line))
        OS << ";;   " << Line << "\n";
      std::fprintf(stderr, "gcfuzz: wrote %s\n", Path.c_str());
      return 1;
    }
    if (Off.BarriersElided > On.BarriersElided) {
      // ElideBarriers=off must not elide more than the on-run does; if
      // it does, some elision site ignores the config toggle.
      std::fprintf(stderr,
                   "gcfuzz: seed %llu: elide-off run elided more stores "
                   "(%llu) than elide-on (%llu)\n",
                   static_cast<unsigned long long>(Seed),
                   static_cast<unsigned long long>(Off.BarriersElided),
                   static_cast<unsigned long long>(On.BarriersElided));
      return 1;
    }
    ElidedTotal += On.BarriersElided;
    ExecutedTotal += On.BarriersExecuted;
  }
  if (ElidedTotal == 0) {
    std::fprintf(stderr,
                 "gcfuzz: vm-diff ran but elided zero barriers — the "
                 "elision pass is not reaching the generated programs\n");
    return 1;
  }
  std::printf("gcfuzz: vm-diff OK — %llu programs, identical output; "
              "elide-on runs: %llu barriers executed, %llu elided "
              "(%.1f%% of dynamic stores)\n",
              static_cast<unsigned long long>(Opt.VmDiff),
              static_cast<unsigned long long>(ExecutedTotal),
              static_cast<unsigned long long>(ElidedTotal),
              100.0 * static_cast<double>(ElidedTotal) /
                  static_cast<double>(ElidedTotal + ExecutedTotal));
  return 0;
}

int replay(const Options &Opt, const std::vector<FuzzConfig> &Configs) {
  std::ifstream IS(Opt.ReplayFile);
  if (!IS) {
    std::fprintf(stderr, "gcfuzz: cannot open %s\n",
                 Opt.ReplayFile.c_str());
    return 2;
  }
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  Trace T;
  std::string Error;
  if (!deserializeTrace(Buf.str(), T, Error)) {
    std::fprintf(stderr, "gcfuzz: %s: %s\n", Opt.ReplayFile.c_str(),
                 Error.c_str());
    return 2;
  }
  int Exit = 0;
  for (const FuzzConfig &Cfg : Configs) {
    RunResult R = runTrace(T, Cfg.Config);
    if (R.Diverged) {
      std::printf("config '%s': DIVERGED at op %zu: %s\n",
                  Cfg.Name.c_str(), R.OpIndex, R.Message.c_str());
      Exit = 1;
    } else {
      std::printf("config '%s': clean (%llu collections)\n",
                  Cfg.Name.c_str(),
                  static_cast<unsigned long long>(R.Collections));
    }
  }
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "gcfuzz: %s needs an argument\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--seed") {
      Opt.Seed = std::strtoull(next(), nullptr, 0);
      Opt.SeedGiven = true;
    } else if (A == "--traces") {
      Opt.Traces = std::strtoull(next(), nullptr, 0);
    } else if (A == "--ops") {
      Opt.Ops = std::strtoull(next(), nullptr, 0);
    } else if (A == "--config") {
      Opt.ConfigName = next();
    } else if (A == "--fault") {
      Opt.Fault = next();
    } else if (A == "--seed-corpus") {
      Opt.SeedCorpus = true;
    } else if (A == "--trace-replay") {
      Opt.ReplayFile = next();
    } else if (A == "--out") {
      Opt.OutDir = next();
    } else if (A == "--no-shrink") {
      Opt.NoShrink = true;
    } else if (A == "--elide") {
      Opt.Elide = next();
      if (Opt.Elide != "on" && Opt.Elide != "off") {
        std::fprintf(stderr, "gcfuzz: --elide takes on|off\n");
        return 2;
      }
    } else if (A == "--scoped") {
      const std::string V = next();
      if (V != "on" && V != "off") {
        std::fprintf(stderr, "gcfuzz: --scoped takes on|off\n");
        return 2;
      }
      Opt.Scoped = V == "on";
    } else if (A == "--donation") {
      const std::string V = next();
      if (V != "on" && V != "off") {
        std::fprintf(stderr, "gcfuzz: --donation takes on|off\n");
        return 2;
      }
      Opt.Donation = V == "on";
    } else if (A == "--vm-diff") {
      Opt.VmDiff = std::strtoull(next(), nullptr, 0);
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "gcfuzz: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }

  if (Opt.VmDiff != 0)
    return runVmDiff(Opt);

  std::vector<FuzzConfig> Configs = selectConfigs(Opt);
  for (FuzzConfig &C : Configs) {
    if (!applyFault(Opt.Fault, C.Config)) {
      std::fprintf(stderr, "gcfuzz: unknown fault '%s'\n",
                   Opt.Fault.c_str());
      return 2;
    }
    if (!Opt.Elide.empty())
      C.Config.ElideBarriers = Opt.Elide == "on";
  }

  if (!Opt.ReplayFile.empty())
    return replay(Opt, Configs);

  if (Opt.SeedCorpus) {
    // The fixed-seed smoke corpus: every standard config, deterministic
    // seeds, sized to stay within a CI smoke budget even under ASan.
    return runSeeds(Configs, /*FirstSeed=*/1000, /*Count=*/40, Opt);
  }

  if (Opt.Traces != 0)
    return runSeeds(Configs, Opt.SeedGiven ? Opt.Seed : 1, Opt.Traces,
                    Opt);

  return runSeeds(Configs, Opt.Seed, 1, Opt);
}
