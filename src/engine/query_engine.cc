#include "src/engine/query_engine.h"

#include <sstream>
#include <unordered_map>

#include "src/util/timer.h"

namespace expfinder {

namespace {

/// Rejects batches that would fail halfway (duplicate inserts, missing
/// deletes, bad endpoints). O(|batch|): only pairs touched by the batch are
/// tracked; untouched pairs are consulted via Graph::HasEdge.
Status ValidateBatch(const Graph& g, const UpdateBatch& batch) {
  auto key = [](NodeId a, NodeId b) { return (static_cast<uint64_t>(a) << 32) | b; };
  std::unordered_map<uint64_t, bool> touched;  // pair -> present after prefix
  touched.reserve(batch.size() * 2);
  for (size_t i = 0; i < batch.size(); ++i) {
    const GraphUpdate& u = batch[i];
    if (!g.IsValidNode(u.src) || !g.IsValidNode(u.dst)) {
      return Status::InvalidArgument("update " + std::to_string(i) +
                                     ": endpoint out of range");
    }
    uint64_t k = key(u.src, u.dst);
    auto it = touched.find(k);
    bool present = it != touched.end() ? it->second : g.HasEdge(u.src, u.dst);
    if (u.kind == GraphUpdate::Kind::kInsertEdge) {
      if (present) {
        return Status::AlreadyExists("update " + std::to_string(i) +
                                     ": edge already present " + u.ToString());
      }
      touched[k] = true;
    } else {
      if (!present) {
        return Status::NotFound("update " + std::to_string(i) + ": edge absent " +
                                u.ToString());
      }
      touched[k] = false;
    }
  }
  return Status::OK();
}

}  // namespace

std::string EngineStats::ToString() const {
  std::ostringstream os;
  os << "queries=" << queries << " cache_hits=" << cache_hits
     << " maintained_hits=" << maintained_hits
     << " compressed_evals=" << compressed_evals << " direct_evals=" << direct_evals
     << " planner_short_circuits=" << planner_short_circuits
     << " batches=" << batches_applied << " updates=" << updates_applied
     << " csr_builds=" << csr_builds
     << " snapshots_published=" << snapshots_published
     << " snapshot_acquires=" << snapshot_acquires
     << " snapshots_retired=" << snapshots_retired
     << " ball_index_builds=" << ball_index_builds
     << " ball_hits=" << ball_hits << " bfs_fallbacks=" << bfs_fallbacks
     << " topic_index_builds=" << topic_index_builds
     << " posting_hits=" << posting_hits
     << " seed_scan_fallbacks=" << seed_scan_fallbacks
     << " last_eval_ms=" << last_eval_ms;
  return os.str();
}

QueryEngine::QueryEngine(Graph* g, EngineOptions options)
    : g_(g),
      core_(options),
      cache_(options.use_cache ? options.cache_capacity : 0) {
  if (options.use_compression) {
    Status st = CompressNow();
    EF_CHECK(st.ok()) << "initial compression failed: " << st;
  }
}

Status QueryEngine::CompressNow() {
  if (compression_ != nullptr &&
      compression_->current().source_version() == g_->version()) {
    return Status::OK();
  }
  if (compression_ == nullptr) {
    auto mc = MaintainedCompression::Create(g_, core_.options().compression_schema);
    if (!mc.ok()) return mc.status();
    compression_ = std::make_unique<MaintainedCompression>(std::move(mc).value());
  } else {
    compression_->Rebuild();
  }
  BumpEngineSeq();
  return Status::OK();
}

const CompressedGraph* QueryEngine::compressed() const {
  return compression_ ? &compression_->current() : nullptr;
}

std::shared_ptr<const EngineSnapshot> QueryEngine::Publish() {
  ++stats_.snapshot_acquires;
  if (published_ != nullptr && published_->engine_seq == engine_seq_ &&
      published_->version == g_->version()) {
    return published_;
  }
  auto next = std::make_shared<EngineSnapshot>();
  // Reuse the published graph handle when the graph itself didn't change
  // (e.g. a republish owed to RegisterMaintainedQuery): no copy, no CSR
  // build, and the shared ball index stays warm.
  if (published_ != nullptr && published_->graph->uid() == g_->uid() &&
      published_->graph->version() == g_->version()) {
    next->graph = published_->graph;
  } else {
    next->graph = g_->Publish();
    ++snapshot_csr_builds_;
  }
  const EngineOptions& opts = core_.options();
  if (opts.use_compression && compression_ != nullptr &&
      compression_->current().source_version() == g_->version()) {
    // Attach the compressed view only when it is current — the snapshot
    // then needs no version check at evaluation time. current() froze Gc
    // once after the last change; the view and compressed_graph share that
    // capture, and an unchanged view is reused as is.
    const CompressedGraph& cg = compression_->current();
    if (published_ != nullptr && published_->compressed_graph == cg.gc_snapshot()) {
      next->compressed = published_->compressed;
    } else {
      next->compressed = std::make_shared<const CompressedGraph>(cg);
      ++snapshot_csr_builds_;
    }
    next->compressed_graph = next->compressed->gc_snapshot();
  }
  next->maintained.reserve(maintained_.size());
  for (const auto& [key, m] : maintained_) {
    next->maintained.emplace(key, m.Snapshot());
  }
  next->version = g_->version();
  next->engine_seq = engine_seq_;
  if (published_ != nullptr) ++stats_.snapshots_retired;
  published_ = std::move(next);
  ++stats_.snapshots_published;
  // The engine's own contexts follow the published snapshot, so
  // Evaluate()/TopK() share the frozen CSR and ball index with any service
  // worker pinned to the same version.
  match_ctx_.BindSnapshot(published_->graph);
  compressed_ctx_.BindSnapshot(published_->compressed_graph);
  RefreshDerivedStats();
  return published_;
}

Result<MatchRelation> QueryEngine::EvaluateWith(const EngineSnapshot& snap,
                                                const Pattern& q,
                                                MatchSemantics semantics,
                                                const EvalOverrides& overrides,
                                                MatchContext* ctx,
                                                MatchContext* compressed_ctx,
                                                EvalPath* path) const {
  return core_.Evaluate(snap, q, semantics, overrides, ctx, compressed_ctx, path);
}

std::optional<MatchRelation> QueryEngine::MaintainedSnapshot(
    const Pattern& q, MatchSemantics semantics) const {
  auto it = maintained_.find(QueryCacheKey(q, semantics));
  if (it == maintained_.end()) return std::nullopt;
  return it->second.Snapshot();
}

void QueryEngine::RefreshDerivedStats() {
  stats_.csr_builds = snapshot_csr_builds_ + match_ctx_.snapshot_builds() +
                      compressed_ctx_.snapshot_builds();
  size_t builds = match_ctx_.ball_index_builds() + compressed_ctx_.ball_index_builds();
  size_t hits = match_ctx_.ball_hits() + compressed_ctx_.ball_hits();
  size_t fallbacks = match_ctx_.bfs_fallbacks() + compressed_ctx_.bfs_fallbacks();
  for (const auto& [fp, m] : maintained_) {
    builds += m.BallIndexBuilds();
    hits += m.BallHits();
    fallbacks += m.BfsFallbacks();
  }
  stats_.ball_index_builds = builds;
  stats_.ball_hits = hits;
  stats_.bfs_fallbacks = fallbacks;
  size_t topic_builds =
      match_ctx_.topic_index_builds() + compressed_ctx_.topic_index_builds();
  if (maintained_topics_ != nullptr) topic_builds += maintained_topics_->builds();
  stats_.topic_index_builds = topic_builds;
  stats_.posting_hits = match_ctx_.posting_hits() + compressed_ctx_.posting_hits();
  stats_.seed_scan_fallbacks =
      match_ctx_.seed_scan_fallbacks() + compressed_ctx_.seed_scan_fallbacks();
}

Result<std::shared_ptr<const QueryAnswer>> QueryEngine::Evaluate(
    const Pattern& q, MatchSemantics semantics) {
  EF_RETURN_NOT_OK(q.Validate());
  Timer timer;
  // Stamps last_eval_ms on every exit — all five serving paths and failed
  // evaluations alike, so the timing telemetry is uniform.
  struct StampOnExit {
    const Timer& timer;
    double& out;
    ~StampOnExit() { out = timer.ElapsedMillis(); }
  } stamp{timer, stats_.last_eval_ms};
  ++stats_.queries;
  auto snap = Publish();
  uint64_t key = QueryCacheKey(q, semantics);

  if (core_.options().use_cache) {
    if (auto hit = cache_.Get(key, snap->version)) {
      ++stats_.cache_hits;
      return hit;
    }
  }

  MatchRelation matches;
  if (const MatchRelation* maintained = snap->Maintained(key)) {
    // Maintained queries are their own serving path: they bypass the eval
    // core, so they must not fall through to the direct/compressed
    // classification below.
    ++stats_.maintained_hits;
    matches = *maintained;
  } else {
    EvalPath path = EvalPath::kDirect;
    auto res =
        core_.Evaluate(*snap, q, semantics, {}, &match_ctx_, &compressed_ctx_, &path);
    if (!res.ok()) return res.status();
    matches = std::move(res).value();
    switch (path) {
      case EvalPath::kPlannerShortCircuit:
        ++stats_.planner_short_circuits;
        break;
      case EvalPath::kCompressed:
        ++stats_.compressed_evals;
        break;
      case EvalPath::kDirect:
        ++stats_.direct_evals;
        break;
    }
  }

  ResultGraph rg(snap->graph, q, matches, &match_ctx_);
  auto answer =
      std::make_shared<QueryAnswer>(QueryAnswer{std::move(matches), std::move(rg)});
  if (core_.options().use_cache) cache_.Put(key, snap->version, answer);
  RefreshDerivedStats();
  return std::shared_ptr<const QueryAnswer>(answer);
}

Result<std::vector<RankedMatch>> QueryEngine::TopK(const Pattern& q, size_t k,
                                                   RankingMetric metric,
                                                   MatchSemantics semantics) {
  auto answer = Evaluate(q, semantics);
  if (!answer.ok()) return answer.status();
  return TopKMatchesWith((*answer)->result_graph, q, k, metric);
}

Result<NodeId> QueryEngine::AddNode(
    std::string_view label,
    const std::vector<std::pair<std::string, AttrValue>>& attrs) {
  NodeId v = g_->AddNode(label);
  for (const auto& [key, value] : attrs) g_->SetAttr(v, key, value);
  if (maintained_topics_ != nullptr) maintained_topics_->OnNodeAdded(*g_, v);
  for (auto& [fp, m] : maintained_) m.OnNodeAdded(v);
  if (compression_ != nullptr && core_.options().maintain_compression) {
    compression_->OnNodeAdded(v);
  }
  BumpEngineSeq();
  return v;
}

Status QueryEngine::RegisterMaintainedQuery(const Pattern& q,
                                            MatchSemantics semantics) {
  EF_RETURN_NOT_OK(q.Validate());
  uint64_t key = QueryCacheKey(q, semantics);
  if (maintained_.count(key)) {
    return Status::AlreadyExists("query already maintained");
  }
  MatchOptions match_opts;
  match_opts.ball_index = core_.options().ball_index;
  match_opts.topic_index = core_.options().topic_index;
  if (match_opts.topic_index.enabled && maintained_topics_ == nullptr &&
      HasTextPredicates(q)) {
    // Maintained queries are reused by construction, so build eagerly (the
    // deferred-use policy guards the per-snapshot slots, not this one).
    // A budget refusal leaves registration on the scan path.
    maintained_topics_ = MaintainedTopicIndex::Build(*g_, match_opts.topic_index);
  }
  MaintainedTopicIndex* topics = maintained_topics_.get();
  Maintained m;
  if (semantics == MatchSemantics::kDualSimulation) {
    m.dual = std::make_unique<IncrementalDualSimulation>(g_, q, match_opts, topics);
  } else if (q.IsSimulationPattern()) {
    m.sim = std::make_unique<IncrementalSimulation>(g_, q, match_opts, topics);
  } else {
    m.bounded =
        std::make_unique<IncrementalBoundedSimulation>(g_, q, match_opts, topics);
  }
  maintained_.emplace(key, std::move(m));
  BumpEngineSeq();
  RefreshDerivedStats();
  return Status::OK();
}

bool QueryEngine::IsMaintained(const Pattern& q, MatchSemantics semantics) const {
  return maintained_.count(QueryCacheKey(q, semantics)) > 0;
}

Status QueryEngine::ApplyUpdates(const UpdateBatch& batch) {
  EF_RETURN_NOT_OK(ValidateBatch(*g_, batch));
  // The maintainer Pre/PostUpdate pair is the first half of the snapshot
  // transition; the second half is the next Publish(), which freezes the
  // post-update state into the successor snapshot readers will pin.
  for (auto& [fp, m] : maintained_) m.PreUpdate(batch);
  EF_RETURN_NOT_OK(ApplyBatch(g_, batch));
  for (auto& [fp, m] : maintained_) m.PostUpdate(batch);
  if (compression_ != nullptr && core_.options().maintain_compression) {
    compression_->OnGraphUpdated(batch);
  }
  ++stats_.batches_applied;
  stats_.updates_applied += batch.size();
  BumpEngineSeq();
  RefreshDerivedStats();
  return Status::OK();
}

}  // namespace expfinder
