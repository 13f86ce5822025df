// Small helpers shared by the benchmark's workloads: wall-clock timing,
// order statistics, the process's peak resident set, and the result record
// printed as the last line of a run.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t) { return MsBetween(t, Clock::now()); }

/// Harrell-Davis estimate of the q-quantile (q in (0, 1)) of `v`: a
/// weighted mean of the order statistics, with Beta(q(n+1), (1-q)(n+1))
/// weights. It varies less from run to run than a single order statistic
/// when the sample mixes requests of very different cost, so that the
/// order statistic at rank qn jumps between request kinds. 0 for an empty
/// sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: operation counts, output checks, metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed output checks, one line each; a run is correct iff empty.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void Add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(const Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
