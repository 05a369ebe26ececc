//===- perfbench/bench/Workloads.h - Benchmark workloads ------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the repository benchmark. Each builds its
/// inputs from the seed, sets itself up several times (setup_s is the
/// median process CPU time of one set-up), measures for the given number
/// of seconds, checks its outputs and fills a Report. Untraced, the report holds the end-to-end
/// metrics; traced, it also holds the per-layer ledger.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool Smoke = false;
  /// Perturbs every expected value so the correctness gate must fail.
  bool Canary = false;
};

Report runSessions(const RunOptions &O);
Report runBulkTransfer(const RunOptions &O);
Report runVmPrograms(const RunOptions &O);

/// The end-to-end metrics every workload reports, in one place so the
/// definitions cannot drift apart between workloads.
struct EndToEnd {
  double SetupS = 0;
  std::vector<double> LatencyMs; ///< One sample per request.
  double ThroughputPerS = 0;
  std::vector<double> CleanupLagMs;
  double CpuSeconds = 0;
  uint64_t Ops = 0;
  uint64_t SetupSamples = 0;
  double PeakRssMb = 0; ///< 0: the process peak when reported.
};
void reportEndToEnd(Report &R, const EndToEnd &E);

/// Median of the setup repetitions, and a note listing them.
double setupMedian(Report &R, const std::vector<double> &SetupS);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
