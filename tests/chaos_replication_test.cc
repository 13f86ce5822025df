// The chaos sweep (ISSUE 10 tentpole, layer 4): a full service + 3-replica
// fleet driven under randomized transport faults, mid-run replica kills,
// and writer churn — with every acknowledged response checked against the
// serial-replay oracle, and the run ending in a deterministic quarantine
// drill that proves the watchdog + auto-restart path fired and the fleet
// converged anyway.
//
// What makes this a *chaos* test rather than a bigger unit test:
//   * The fault plan is probabilistic (fetch errors, stalls, truncation,
//     duplication, garbling, forced lost prefixes all armed at once), so
//     which replica hits which fault depends on scheduling. Correctness is
//     therefore asserted as an invariant — every response's relation equals
//     a serial replay at exactly the version the response reports — not as
//     a scripted sequence.
//   * Reads are bounded: no routed read may block past the staleness budget
//     plus the ladder's retry allowance (the fail-fast and wake-on-death
//     machinery is what keeps this true when replicas die mid-wait).
//   * The sweep is seedable: EXPFINDER_CHAOS_SEED offsets the generator,
//     fault, and reader seeds, so the chaos-stress CI job explores distinct
//     trajectories while any single failure stays reproducible.
//
// Carries the "chaos" ctest label (see tests/CMakeLists.txt): the
// chaos-stress CI job loops this binary over fixed seeds, and the
// replication/concurrency labels keep it in the TSan and ASan+UBSan jobs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/graph_io.h"
#include "src/incremental/update.h"
#include "src/matching/bounded_simulation.h"
#include "src/replication/fault_source.h"
#include "src/replication/fleet.h"
#include "src/service/expfinder_service.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

// CI stress runs export EXPFINDER_CHAOS_SEED to shift every seed in the
// sweep; a bare local run uses the fixed default.
uint64_t ChaosSeed() {
  const char* env = std::getenv("EXPFINDER_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

std::string GraphText(const Graph& g) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraphText(g, os).ok());
  return os.str();
}

bool WaitFor(const std::function<bool()>& pred, double timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(static_cast<int64_t>(timeout_ms));
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ChaosReplicationFixture : public ::testing::Test {
 protected:
  std::string FreshDir() {
    std::string dir =
        ::testing::TempDir() + "/chaos_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }
};

TEST_F(ChaosReplicationFixture, FaultedSweepMatchesSerialReplayOracle) {
  const uint64_t seed = ChaosSeed();
  std::string dir = FreshDir();

  gen::CollaborationConfig gen_cfg;
  gen_cfg.num_people = 240;
  gen_cfg.num_teams = 40;
  gen_cfg.seed = 9 + seed;
  Graph g = gen::CollaborationNetwork(gen_cfg);

  const std::vector<Pattern> patterns = {gen::TeamQuery(0), gen::TeamQuery(1),
                                         gen::TeamQuery(2)};

  // Serial-replay oracle: the expected relation of every pattern at every
  // version any routed (or fallback) read can observe.
  Graph serial = g;
  std::vector<UpdateBatch> batches;
  std::vector<std::map<uint64_t, MatchRelation>> expected(patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    expected[p][serial.version()] = ComputeBoundedSimulation(serial, patterns[p]);
  }
  // The writer sends at least kMinBatches and keeps going, up to
  // kMaxBatches, until every armed fault mode has fired at least once.
  constexpr size_t kMinBatches = 8;
  constexpr size_t kMaxBatches = 128;
  std::vector<std::string> serial_text = {GraphText(serial)};
  std::vector<uint64_t> serial_version = {serial.version()};
  for (size_t b = 0; b < kMaxBatches; ++b) {
    UpdateBatch batch = GenerateUpdateStream(serial, 15, 0.5, 6000 + seed + b);
    ASSERT_TRUE(ApplyBatch(&serial, batch).ok());
    batches.push_back(std::move(batch));
    serial_text.push_back(GraphText(serial));
    serial_version.push_back(serial.version());
    for (size_t p = 0; p < patterns.size(); ++p) {
      expected[p][serial.version()] =
          ComputeBoundedSimulation(serial, patterns[p]);
    }
  }

  ServiceOptions opts;
  opts.engine.match_threads = 1;  // per-request parallelism, not per-matcher
  opts.serving_threads = 4;
  opts.durability.dir = dir;
  opts.durability.background_checkpoints = false;
  opts.durability.checkpoint_every_n_batches = 0;  // explicit CheckpointNow
  opts.replication.num_replicas = 3;
  opts.replication.poll_interval_ms = 1.0;
  opts.replication.max_staleness_wait_ms = 1000.0;
  opts.replication.read_retries = 1;
  opts.replication.retry_wait_ms = 20.0;
  opts.replication.hedge_delay_ms = 25.0;  // exercise the hedged path
  opts.replication.fallback_to_primary = true;
  // Every transport fault mode armed at once, at rates high enough that a
  // short run hits each (the writer extends the run until all have fired),
  // low enough that replicas still make progress between incidents.
  opts.replication.delta_faults.fetch_error_prob = 0.15;
  opts.replication.delta_faults.stall_prob = 0.05;
  opts.replication.delta_faults.stall_ms = 2.0;
  opts.replication.delta_faults.truncate_prob = 0.2;
  opts.replication.delta_faults.duplicate_prob = 0.2;
  opts.replication.delta_faults.garble_prob = 0.1;
  opts.replication.delta_faults.lost_prefix_prob = 0.05;
  opts.replication.delta_faults.seed = 1 + seed;
  // A tight watchdog so fault bursts can quarantine during the sweep; the
  // FakeClock is deliberately NOT used here — chaos runs on real time.
  opts.replication.health.quarantine_after_failures = 3;
  opts.replication.health.backoff_initial_ms = 5.0;
  opts.replication.health.backoff_max_ms = 50.0;
  opts.replication.health.jitter_seed = 0x5EEDBACCULL + seed;
  ExpFinderService service(&g, opts);
  ASSERT_TRUE(service.durable());
  ASSERT_NE(service.fleet(), nullptr);
  ASSERT_NE(service.delta_faults(), nullptr);

  // No routed read may block past the ladder's worst case (staleness budget
  // + retries) plus generous evaluation slack for sanitizer builds.
  const double kMaxQueryMs =
      opts.replication.max_staleness_wait_ms +
      static_cast<double>(opts.replication.read_retries) *
          opts.replication.retry_wait_ms +
      10000.0;

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    if (failures.size() < 10) failures.push_back(msg);
  };
  auto check_response = [&](size_t p, const Result<QueryResponse>& resp,
                            double elapsed_ms) {
    if (elapsed_ms > kMaxQueryMs) {
      std::ostringstream os;
      os << "query blocked " << elapsed_ms << " ms (bound " << kMaxQueryMs
         << ")";
      record_failure(os.str());
    }
    if (!resp.ok()) {
      record_failure("query failed: " + resp.status().ToString());
      return;
    }
    auto it = expected[p].find(resp->graph_version);
    if (it == expected[p].end()) {
      std::ostringstream os;
      os << "response reports unknown graph version " << resp->graph_version;
      record_failure(os.str());
      return;
    }
    if (!(resp->answer->matches == it->second)) {
      std::ostringstream os;
      os << "relation inconsistent with reported version "
         << resp->graph_version << " for pattern " << p << " (path "
         << ServingPathName(resp->path) << ")";
      record_failure(os.str());
    }
  };

  auto unfired_modes = [&] {
    const FaultyDeltaSource::Counters c = service.delta_faults()->counters();
    std::string unfired;
    if (c.fetch_errors == 0) unfired += " fetch_error";
    if (c.stalls == 0) unfired += " stall";
    if (c.truncated_batches == 0) unfired += " truncate";
    if (c.duplicated_frames == 0) unfired += " duplicate";
    if (c.garbled_frames == 0) unfired += " garble";
    if (c.forced_lost_prefixes == 0) unfired += " lost_prefix";
    return unfired;
  };

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> last_written_version{service.version()};
  size_t batches_written = 0;
  std::thread writer([&] {
    for (size_t b = 0; b < batches.size(); ++b) {
      if (b >= kMinBatches && unfired_modes().empty()) break;
      Status st = service.Mutate(batches[b]);
      if (!st.ok()) record_failure("mutate failed: " + st.ToString());
      last_written_version.store(service.version());
      if (b == 2) {
        // Operator kill on top of the transport chaos: the fleet must keep
        // serving from the survivors.
        service.fleet()->StopReplica(1);
      } else if (b == 5) {
        Status ck = service.CheckpointNow();
        if (!ck.ok()) record_failure("checkpoint failed: " + ck.ToString());
        service.fleet()->RestartReplica(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      batches_written = b + 1;
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(700 * (t + 1) + seed);
      size_t reads = 0;
      while (reads < 30 || !writer_done.load()) {
        if (reads >= 200) break;  // hard cap; never starves the writer
        size_t p = rng.NextBounded(patterns.size());
        QueryRequest req;
        req.pattern = patterns[p];
        req.use_cache = rng.NextBounded(2) == 0;
        if (rng.NextBounded(4) == 0) {
          // Read-your-writes: a floor at the last acknowledged write.
          req.min_version = last_written_version.load();
        }
        const auto start = std::chrono::steady_clock::now();
        auto resp = service.Query(req);
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        check_response(p, resp, elapsed_ms);
        ++reads;
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();

  {
    std::lock_guard<std::mutex> lock(failures_mu);
    for (const std::string& f : failures) ADD_FAILURE() << f;
  }
  // A sweep that skipped a fault class proves nothing about it.
  EXPECT_EQ(unfired_modes(), "") << "armed fault modes that never fired in "
                                 << batches_written << " batches";

  // Phase 2 — deterministic quarantine drill: cut the transport entirely.
  // Every replica racks up consecutive fetch failures, quarantines, and
  // auto-restarts by re-anchoring (checkpoint + durable tail — a path that
  // bypasses the faulty transport), so both watchdog counters must fire no
  // matter how lucky phase 1's draws were.
  DeltaFaultPlan cut;
  cut.fetch_error_prob = 1.0;
  cut.seed = 2 + seed;
  service.delta_faults()->SetPlan(cut);
  ASSERT_TRUE(WaitFor(
      [&] {
        return service.fleet()->TotalQuarantines() > 0 &&
               service.fleet()->TotalAutoRestarts() > 0;
      },
      15000.0))
      << "transport cut never quarantined/auto-restarted any replica";

  // Disarm the chaos: the self-healed fleet — including the killed-and-
  // restarted and every quarantined replica — converges on the primary.
  service.delta_faults()->SetPlan({});
  const uint64_t final_version = service.version();
  EXPECT_EQ(final_version, serial_version[batches_written]);
  // A replica re-anchoring after a (forced) lost prefix stays alive at its
  // old version until the checkpoint install lands, then falls back to the
  // checkpoint and replays the tail. It has converged only once every
  // re-anchor it started has installed: one install per applier start
  // (replica 1 was restarted once) plus one per rebootstrap and per
  // auto-restart.
  auto reanchors_done = [&](const ReplicaStatus& r) {
    const size_t starts = r.id == 1 ? 2 : 1;
    return r.installs == starts + r.rebootstraps + r.auto_restarts;
  };
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = service.fleet()->Replicas();
        for (const ReplicaStatus& r : rs) {
          if (!r.alive || r.version != final_version || !reanchors_done(r)) return false;
        }
        return true;
      },
      15000.0))
      << "fleet never converged on version " << final_version;

  // Quiesce the appliers, then check bit-identity against both the live
  // primary and the serial replay.
  std::string primary_text = GraphText(service.graph());
  EXPECT_EQ(primary_text, serial_text[batches_written]);
  for (size_t i = 0; i < service.fleet()->num_replicas(); ++i) {
    service.fleet()->StopReplica(i);
    const Replica& replica = service.fleet()->replica(i);
    EXPECT_EQ(replica.version(), final_version) << "replica " << i;
    EXPECT_EQ(GraphText(replica.graph()), primary_text) << "replica " << i;
  }

  ServiceStats s = service.stats();
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  EXPECT_EQ(s.deltas_shipped, batches_written);
  EXPECT_GT(s.routed_reads + s.routed_fallbacks, 0u);
  EXPECT_GT(s.replica_quarantines, 0u);
  EXPECT_GT(s.replica_auto_restarts, 0u);
  std::string text = s.ToString();
  EXPECT_NE(text.find("replica_quarantines="), std::string::npos) << text;
  EXPECT_NE(text.find("replica_auto_restarts="), std::string::npos) << text;
}

}  // namespace
}  // namespace expfinder
