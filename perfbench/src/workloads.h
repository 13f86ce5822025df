// The benchmark's three workloads and the Fig. 1 self-check.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/bench_util.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  // team_search | topic_search | write_mix
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for this run's WAL, checkpoints and span dump.
  std::string run_dir;
  /// When the process started (set-up time counts from here).
  Clock::time_point process_start;
};

bool IsWorkload(const std::string& name);

/// Runs one workload and fills `out` (metrics, counts, check failures).
void RunWorkload(const RunConfig& config, Outcome* out);

/// Reproduces the paper's Fig. 1 facts with the oracle and with the
/// service; failures go to out->errors.
void SelfCheckFig1(Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
