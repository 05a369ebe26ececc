//===- perfbench/bench/Main.cpp - Benchmark entry point -----------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   gengc_perfbench --workload sessions|bulk-transfer|vm-programs
///                    --seed N --seconds S --trace 0|1 --out FILE
///                    [--spans FILE] [--smoke] [--canary]
///
/// Writes one JSON report to --out. Untraced, the report holds the
/// end-to-end metrics. Traced, the workload runs twice in this process,
/// untraced for the first half of the time and traced for the second,
/// and the report holds the traced run's per-layer ledger plus the
/// tracing overhead: the traced run's CPU time per op over the untraced
/// run's. perfbench/run.py builds this binary and formats its output.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace perfbench {

double setupMedian(Report &R, const std::vector<double> &SetupS) {
  std::string Note = "setup repetitions (CPU s):";
  char Buf[32];
  for (double S : SetupS) {
    std::snprintf(Buf, sizeof Buf, " %.6f", S);
    Note += Buf;
  }
  R.Notes.push_back(Note);
  return median(SetupS);
}

void reportEndToEnd(Report &R, const EndToEnd &E) {
  R.set("setup_s", E.SetupS, "s", E.SetupSamples);
  R.set("latency_p50_ms", percentile(E.LatencyMs, 0.5), "ms",
        E.LatencyMs.size());
  R.set("latency_p99_ms", percentile(E.LatencyMs, 0.99), "ms",
        E.LatencyMs.size());
  R.set("throughput_per_s", E.ThroughputPerS, "1/s", E.Ops);
  R.set("cleanup_lag_p99_ms", percentile(E.CleanupLagMs, 0.99), "ms",
        E.CleanupLagMs.size());
  R.set("peak_rss_mb", E.PeakRssMb > 0 ? E.PeakRssMb : peakRssMb(), "MB", 1);
  R.set("cpu_us_per_op",
        E.Ops ? E.CpuSeconds * 1e6 / static_cast<double>(E.Ops) : 0.0, "us",
        E.Ops);
}

} // namespace perfbench

int main(int Argc, char **Argv) {
  std::string Workload, Out, Spans;
  RunOptions O;
  int Trace = 0;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const bool HasNext = I + 1 < Argc;
    if (A == "--workload" && HasNext)
      Workload = Argv[++I];
    else if (A == "--seed" && HasNext)
      O.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasNext)
      O.Seconds = std::strtod(Argv[++I], nullptr);
    else if (A == "--trace" && HasNext)
      Trace = std::atoi(Argv[++I]);
    else if (A == "--out" && HasNext)
      Out = Argv[++I];
    else if (A == "--spans" && HasNext)
      Spans = Argv[++I];
    else if (A == "--smoke")
      O.Smoke = true;
    else if (A == "--canary")
      O.Canary = true;
    else {
      std::fprintf(stderr, "gengc_perfbench: bad argument '%s'\n", A.c_str());
      return 2;
    }
  }
  Report (*Run)(const RunOptions &) = nullptr;
  if (Workload == "sessions")
    Run = runSessions;
  else if (Workload == "bulk-transfer")
    Run = runBulkTransfer;
  else if (Workload == "vm-programs")
    Run = runVmPrograms;
  if (!Run || Out.empty() || O.Seconds <= 0 || (Trace != 0 && Trace != 1)) {
    std::fprintf(stderr, "gengc_perfbench: need --workload "
                         "sessions|bulk-transfer|vm-programs, --seconds > 0, "
                         "--trace 0|1 and --out FILE\n");
    return 2;
  }

  Report R;
  if (Trace == 0) {
    R = Run(O);
  } else {
    RunOptions Half = O;
    Half.Seconds = O.Seconds / 2;
    const Report Plain = Run(Half);
    Tracing = true;
    Half.Traced = true;
    R = Run(Half);
    Tracing = false;
    const double Base = Plain.Metrics.at("cpu_us_per_op").Value;
    const double Traced = R.Metrics.at("cpu_us_per_op").Value;
    R.set("trace.overhead_frac", Base > 0 ? Traced / Base - 1.0 : 0.0,
          "fraction", R.Metrics.at("cpu_us_per_op").Samples);
    // Wall-clock end-to-end figures of the untraced half, recorded but
    // not gated: on a shared 4-core host other tenants move them by a
    // quarter or more from run to run.
    for (const char *Name :
         {"latency_p50_ms", "latency_p99_ms", "throughput_per_s",
          "cleanup_lag_p99_ms", "pause_p50_us", "pause_p99_us"}) {
      const Report::Metric &M = Plain.Metrics.at(Name);
      R.set(std::string("untraced.") + Name, M.Value, M.Unit, M.Samples);
    }
    // The untraced half's verdict counts too.
    for (const std::string &F : Plain.CheckFailures)
      R.CheckFailures.push_back("untraced half: " + F);
    R.Attempted += Plain.Attempted;
    R.Failed += Plain.Failed;
    R.set("error_frac",
          R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0.0,
          "fraction", R.Attempted);
    auto Ratio = R.Metrics.find("gc.pause.wall_cpu_ratio");
    if (Ratio != R.Metrics.end() && Ratio->second.Value > 2)
      R.Anomalies.push_back("gc.pause.wall_cpu_ratio " +
                            std::to_string(Ratio->second.Value) +
                            " > 2: collections wait off-CPU");
    if (!Spans.empty() && !writeTrace(Spans))
      std::fprintf(stderr, "gengc_perfbench: cannot write %s\n",
                   Spans.c_str());
  }
  std::FILE *F = std::fopen(Out.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "gengc_perfbench: cannot write %s\n", Out.c_str());
    return 2;
  }
  std::fputs(R.toJson().c_str(), F);
  if (std::fclose(F) != 0)
    return 2;
  return R.CheckFailures.empty() ? 0 : 1;
}
