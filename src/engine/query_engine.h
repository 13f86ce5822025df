// The ExpFinder query engine (paper §II, Fig. 2): evaluates pattern
// queries, ranks matches, and coordinates the result cache, the incremental
// computation module, and the graph compression module.
//
// Since ISSUE 6 the engine is a thin stateful facade over the stateless
// EvalCore (eval_core.h). The facade owns the mutable half — the live
// graph, the result cache, the incremental maintainers, the compression
// state — and turns it into immutable EngineSnapshots via Publish():
//
//   Publish():     freeze (graph copy + CSR, current compressed view —
//                  one Gc capture per change, shared with the snapshot's
//                  compressed_graph — materialized maintained relations)
//                  into a refcounted
//                  EngineSnapshot. Lazy: republishes only when a mutation
//                  happened since the last publish, and reuses the graph /
//                  compressed handles that didn't change.
//   Evaluate(Q):   cache hit -> return cached M(Q,G)
//                  maintained query -> relation from the pinned snapshot
//                  compressed view attached & compatible -> evaluate on Gc,
//                     decompress
//                  otherwise -> direct (bounded) simulation, all through
//                  EvalCore against the published snapshot.
//   ApplyUpdates:  routes batches through every registered incremental
//                  state, then re-stabilizes the compressed graph, patching
//                  only the classes the batch touched. The next
//                  Publish() carries the transition to readers — maintainer
//                  PreUpdate/PostUpdate are the first half of the publish
//                  step (ExpFinderService::Mutate completes it by swapping
//                  its epoch pointer to the fresh snapshot).

#ifndef EXPFINDER_ENGINE_QUERY_ENGINE_H_
#define EXPFINDER_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <optional>
#include <unordered_map>

#include "src/compression/maintenance.h"
#include "src/engine/eval_core.h"
#include "src/engine/result_cache.h"
#include "src/incremental/inc_bounded.h"
#include "src/incremental/inc_dual.h"
#include "src/incremental/inc_simulation.h"
#include "src/matching/match_context.h"
#include "src/ranking/topk.h"
#include "src/util/timer.h"

namespace expfinder {

/// \brief Execution telemetry (cumulative + last query breakdown).
///
/// Every query is classified into exactly one serving path, so
///   queries == cache_hits + maintained_hits + planner_short_circuits +
///              compressed_evals + direct_evals
/// holds at all times (planner short circuits used to be double-counted as
/// direct evals; maintained hits bypass the eval core entirely but still
/// set last_eval_ms).
struct EngineStats {
  size_t queries = 0;
  size_t cache_hits = 0;
  size_t maintained_hits = 0;
  size_t compressed_evals = 0;
  size_t direct_evals = 0;
  size_t planner_short_circuits = 0;
  size_t batches_applied = 0;
  size_t updates_applied = 0;
  /// CSR snapshot (re)builds: one per GraphSnapshot captured at publish
  /// time, plus any private per-context builds (the pre-snapshot paths).
  /// Steady state (repeated queries, no updates) must not grow this.
  size_t csr_builds = 0;
  /// Snapshot lifecycle: EngineSnapshots created by Publish(), handles
  /// handed out (every Evaluate pins one; every Publish call returns one),
  /// and snapshots superseded by a newer publish (retired from the
  /// engine's slot — readers still holding the handle keep it alive).
  size_t snapshots_published = 0;
  size_t snapshot_acquires = 0;
  size_t snapshots_retired = 0;
  /// Ball-index telemetry across the engine's match contexts and every
  /// maintained query: successful index (re)builds (like csr_builds, steady
  /// state must not grow this), traversals served from the index, and
  /// traversals that ran a BFS although the index was requested (depth
  /// beyond the cap, overflowed hub, budget-refused build).
  size_t ball_index_builds = 0;
  size_t ball_hits = 0;
  size_t bfs_fallbacks = 0;
  /// Topic-index telemetry (see index/topic_index.h): successful inverted
  /// index builds (snapshot slots + the maintained index, steady state must
  /// not grow this), pattern nodes seeded from a posting list, and pattern
  /// nodes with text predicates that scanned anyway (index deferred,
  /// refused, disabled, or not cheaper than the scan).
  size_t topic_index_builds = 0;
  size_t posting_hits = 0;
  size_t seed_scan_fallbacks = 0;
  /// Wall time of the last Evaluate, stamped uniformly on every serving
  /// path *and* on failed evaluations (cancel, deadline, error).
  double last_eval_ms = 0.0;

  /// Sum of the per-path counters; equals `queries` by construction.
  size_t ClassifiedQueries() const {
    return cache_hits + maintained_hits + planner_short_circuits +
           compressed_evals + direct_evals;
  }

  std::string ToString() const;
};

/// \brief Stateful facade over matching, ranking, incremental maintenance,
/// compression and caching; publishes immutable EngineSnapshots for the
/// lock-free serving path.
class QueryEngine {
 public:
  /// `g` must outlive the engine; the engine mutates it in ApplyUpdates.
  explicit QueryEngine(Graph* g, EngineOptions options = {});

  const Graph& graph() const { return *g_; }
  const EngineOptions& options() const { return core_.options(); }
  /// The stateless evaluation core (shared configuration + planner).
  const EvalCore& core() const { return core_; }

  /// The current published snapshot, republishing first when any mutation
  /// happened since the last publish. Cheap when current (two integer
  /// compares); a republish costs the graph copy + CSR build plus the
  /// materialization of maintained relations and, when the compressed view
  /// changed, one Gc capture.
  /// Handles unchanged by the mutation (e.g. the graph after
  /// RegisterMaintainedQuery) are reused, not recaptured. Not thread-safe
  /// against other engine calls — the service serializes Publish behind its
  /// writer lock; readers consume the returned handle, never the engine.
  std::shared_ptr<const EngineSnapshot> Publish();

  /// Evaluates Q under the chosen semantics and returns the match relation
  /// + result graph.
  Result<std::shared_ptr<const QueryAnswer>> Evaluate(
      const Pattern& q, MatchSemantics semantics = MatchSemantics::kBoundedSimulation);

  /// Top-K experts for Q's output node under the chosen metric.
  Result<std::vector<RankedMatch>> TopK(
      const Pattern& q, size_t k,
      RankingMetric metric = RankingMetric::kSocialImpact,
      MatchSemantics semantics = MatchSemantics::kBoundedSimulation);

  /// The uncached evaluation core behind Evaluate: EvalCore::Evaluate
  /// against a pinned snapshot, parameterized on the scratch contexts so
  /// callers can bring their own. Const and thread-safe: any number of
  /// threads may call it concurrently as long as each call passes contexts
  /// no other call is using (`ctx` for evaluation over the snapshot's
  /// graph, `compressed_ctx` over its Gc) — the snapshot is immutable, so
  /// no reader ever waits on a writer. Does not consult the cache or
  /// maintained state and updates no stats; `path` reports the serving
  /// path taken.
  Result<MatchRelation> EvaluateWith(const EngineSnapshot& snap, const Pattern& q,
                                     MatchSemantics semantics,
                                     const EvalOverrides& overrides, MatchContext* ctx,
                                     MatchContext* compressed_ctx,
                                     EvalPath* path) const;

  /// Snapshot of a maintained query's relation, or nullopt when (q,
  /// semantics) was never registered. Reads the *live* maintainer state —
  /// concurrent readers should use EngineSnapshot::Maintained instead.
  std::optional<MatchRelation> MaintainedSnapshot(const Pattern& q,
                                                  MatchSemantics semantics) const;

  /// Adds a person to the network (no edges yet; connect via ApplyUpdates).
  /// Maintained queries and the compressed graph are extended in place.
  Result<NodeId> AddNode(std::string_view label,
                         const std::vector<std::pair<std::string, AttrValue>>& attrs = {});

  /// Applies a batch of edge updates, maintaining every registered query
  /// and the compressed graph. The batch is validated first; on validation
  /// failure nothing changes.
  Status ApplyUpdates(const UpdateBatch& batch);

  /// Registers Q as a frequently issued query maintained incrementally
  /// ("decided by the users", §II), under the chosen semantics.
  Status RegisterMaintainedQuery(
      const Pattern& q, MatchSemantics semantics = MatchSemantics::kBoundedSimulation);
  bool IsMaintained(const Pattern& q,
                    MatchSemantics semantics = MatchSemantics::kBoundedSimulation) const;

  /// Builds the compressed graph now (no-op if current). Exposed so callers
  /// can choose the compression moment, mirroring the GUI's "Graph
  /// Compressor" tool.
  Status CompressNow();
  /// The compressed graph, or nullptr when not built.
  const CompressedGraph* compressed() const;

  const EngineStats& stats() const { return stats_; }

 private:
  struct Maintained {
    std::unique_ptr<IncrementalSimulation> sim;
    std::unique_ptr<IncrementalBoundedSimulation> bounded;
    std::unique_ptr<IncrementalDualSimulation> dual;

    MatchRelation Snapshot() const {
      if (sim) return sim->Snapshot();
      if (bounded) return bounded->Snapshot();
      return dual->Snapshot();
    }
    void PreUpdate(const UpdateBatch& batch) {
      if (sim) sim->PreUpdate(batch);
      else if (bounded) bounded->PreUpdate(batch);
      else dual->PreUpdate(batch);
    }
    void PostUpdate(const UpdateBatch& batch) {
      if (sim) sim->PostUpdate(batch);
      else if (bounded) bounded->PostUpdate(batch);
      else dual->PostUpdate(batch);
    }
    void OnNodeAdded(NodeId v) {
      if (sim) sim->OnNodeAdded(v);
      else if (bounded) bounded->OnNodeAdded(v);
      else dual->OnNodeAdded(v);
    }
    size_t BallIndexBuilds() const {
      if (bounded) return bounded->ball_index_builds();
      if (dual) return dual->ball_index_builds();
      return 0;  // plain simulation never bounded-BFSes
    }
    size_t BallHits() const {
      if (bounded) return bounded->ball_hits();
      if (dual) return dual->ball_hits();
      return 0;
    }
    size_t BfsFallbacks() const {
      if (bounded) return bounded->bfs_fallbacks();
      if (dual) return dual->bfs_fallbacks();
      return 0;
    }
  };

  /// Re-derives the counters that aggregate context and maintained-query
  /// state (csr_builds + the ball-index trio).
  void RefreshDerivedStats();

  /// Marks published state stale; the next Publish() builds a successor.
  void BumpEngineSeq() { ++engine_seq_; }

  Graph* g_;
  EvalCore core_;
  ResultCache cache_;
  std::unique_ptr<MaintainedCompression> compression_;
  std::unordered_map<uint64_t, Maintained> maintained_;
  /// Incrementally maintained topic index over the live graph, built lazily
  /// the first time a maintained query with text predicates registers (the
  /// registration itself seeds from it). AddNode patches it in place;
  /// engine edge updates never touch content, so it stays exact.
  std::unique_ptr<MaintainedTopicIndex> maintained_topics_;
  /// Scratch for evaluations through Evaluate()/TopK(); bound to the
  /// published snapshot at each Publish, so a steady-state query builds no
  /// per-query CSR at all.
  MatchContext match_ctx_;
  /// Separate context for evaluations over the compressed graph, so
  /// alternating direct/compressed queries don't thrash one snapshot slot.
  MatchContext compressed_ctx_;
  /// The current published snapshot (null until the first Publish).
  std::shared_ptr<const EngineSnapshot> published_;
  /// Bumped by every mutation; published_->engine_seq trails it exactly
  /// when a republish is owed.
  uint64_t engine_seq_ = 0;
  /// CSRs built inside GraphSnapshot captures (feeds stats_.csr_builds).
  size_t snapshot_csr_builds_ = 0;
  EngineStats stats_;
};

}  // namespace expfinder

#endif  // EXPFINDER_ENGINE_QUERY_ENGINE_H_
