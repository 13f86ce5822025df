// perfbench: the end-to-end benchmark program. Runs one workload against the
// ExpFinder service and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <team_search|topic_search|write_mix> --seed <n>
//             --seconds <s> --trace <0|1> --run-dir <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// requests through each layer's public functions and reports the per-layer
// metrics instead. Check failures are listed on standard error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

/// The update stream is sized from --seconds; this keeps it small.
constexpr uint64_t kMaxSeconds = 600;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <team_search|topic_search|"
               "write_mix> --seed <n> --seconds <1..600> --trace <0|1> --run-dir <dir>\n",
               why);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.process_start = perfbench::Clock::now();
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    uint64_t n = 0;
    if (key == "--workload") {
      cfg.workload = value;
      have_workload = perfbench::IsWorkload(value);
    } else if (key == "--seed" && ParseUint(value, &n)) {
      cfg.seed = n;
      have_seed = true;
    } else if (key == "--seconds" && ParseUint(value, &n) && n >= 1 && n <= kMaxSeconds) {
      cfg.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      cfg.trace = value == "1";
      have_trace = true;
    } else if (key == "--run-dir") {
      cfg.run_dir = value;
    } else {
      return Usage(("bad argument " + key + " " + value).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (!have_workload) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || cfg.run_dir.empty()) {
    return Usage("missing --seed, --seconds, --trace or --run-dir");
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.run_dir, ec);
  std::filesystem::create_directories(cfg.run_dir, ec);
  if (ec) return Usage(("cannot create run dir: " + ec.message()).c_str());

  perfbench::Outcome out;
  perfbench::SelfCheckFig1(&out);
  if (out.errors.empty()) perfbench::RunWorkload(cfg, &out);
  for (const std::string& e : out.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::filesystem::remove_all(cfg.run_dir, ec);
  perfbench::PrintResult(out);
  return out.errors.empty() ? 0 : 1;
}
