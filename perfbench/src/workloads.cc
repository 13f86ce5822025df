#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "perfbench/src/oracle.h"
#include "perfbench/src/trace.h"
#include "src/expfinder.h"
#include "src/replication/delta.h"
#include "src/replication/replica.h"
#include "src/storage/durable_graph.h"

namespace perfbench {

using namespace expfinder;  // NOLINT(build/namespaces): benchmark-local file

namespace {

// ---------------------------------------------------------------------------
// Inputs. The data graphs and the query pools are fixed, like a benchmark
// dataset; --seed picks the request order of every round and the update
// stream. (Graph instances drawn per seed moved every latency by 10-20%
// between seeds, more than a regression bound can absorb.)
// ---------------------------------------------------------------------------

constexpr size_t kPeople = 16000;
constexpr uint64_t kGraphSeed = 1;
constexpr size_t kTopK = 10;
constexpr size_t kBatchUpdates = 8;
/// Reads per run: the p95 needs at least ten samples beyond it.
constexpr size_t kMinQueries = 200;
/// Writes per run: the p90 needs at least ten samples beyond it.
constexpr size_t kMinWrites = 100;
/// Probe writes after each read round of the read workloads.
constexpr size_t kProbeWritesPerRound = 8;
/// Writes per second of window the update stream is sized for: about ten
/// times the fastest rate measured on either write path (~17/s), so a much
/// faster program still finds updates left. A run whose stream runs out
/// before the window ends fails its checks instead of measuring less.
constexpr size_t kMaxWritesPerSecond = 200;
/// Random team patterns: the first ten seeds whose labels all occur in the
/// collaboration model (the others are refused by the planner and measure
/// nothing).
constexpr uint64_t kRandomPatternSeeds[] = {1, 2, 3, 4, 5, 8, 9, 11, 18, 19};

struct Request {
  std::string name;
  std::string text;  // the pattern as the client sends it
  MatchSemantics semantics = MatchSemantics::kBoundedSimulation;
  std::vector<std::string> terms;
  RankingMetric metric = RankingMetric::kSocialImpact;
  bool use_cache = false;
  bool dual() const { return semantics == MatchSemantics::kDualSimulation; }
};

Request MakeRequest(std::string name, std::string text) {
  Request r;
  r.name = std::move(name);
  r.text = std::move(text);
  return r;
}

Graph CollaborationGraph(bool topics) {
  gen::CollaborationConfig cfg;
  cfg.num_people = kPeople;
  cfg.num_teams = kPeople / 6;
  cfg.seed = kGraphSeed;
  if (topics) cfg.labels = gen::TopicExpertiseModel();
  return gen::CollaborationNetwork(cfg);
}

std::vector<Request> TeamPool() {
  std::vector<Request> pool;
  for (int i = 0; i < 3; ++i) {
    pool.push_back(MakeRequest("Q" + std::to_string(i + 1), gen::TeamQuery(i).ToText()));
  }
  for (int i : {0, 2}) {
    Request r = MakeRequest("Q" + std::to_string(i + 1) + "-dual", gen::TeamQuery(i).ToText());
    r.semantics = MatchSemantics::kDualSimulation;
    pool.push_back(r);
  }
  for (uint64_t s : kRandomPatternSeeds) {
    const size_t size = 3 + s % 2;
    pool.push_back(MakeRequest("R" + std::to_string(s),
                               gen::RandomPattern(size, size, 3, 0.5, s).ToText()));
  }
  return pool;
}

Request TopicRequest(std::string name, const std::string& label,
                     std::vector<std::string> terms, const std::string& peer = "",
                     Distance bound = 1) {
  PatternBuilder b;
  auto x = b.Node(label == "*" ? "" : label, "x").Output();
  if (!peer.empty()) b.Edge(x, b.Node(peer, "y"), bound);
  Request r = MakeRequest(std::move(name), b.Build().value().ToText());
  r.terms = std::move(terms);
  r.metric = RankingMetric::kTopicFusion;
  return r;
}

std::vector<Request> TopicPool() {
  return {
      TopicRequest("T1", "*", {"graph databases"}),
      TopicRequest("T2", "SD", {"machine learning"}),
      TopicRequest("T3", "SA", {"distributed systems"}),
      TopicRequest("T4", "*", {"query optimization", "compilers"}),
      TopicRequest("T5", "ST", {"network security"}),
      TopicRequest("T6", "*", {"site reliability"}),
      TopicRequest("T7", "BA", {"frontend tooling"}),
      TopicRequest("T8", "SD", {"stream processing"}, "ST", 2),
      TopicRequest("T9", "SA", {"information retrieval"}, "SD", 1),
      TopicRequest("T10", "*", {"computer vision"}, "BA", 2),
      TopicRequest("T11", "PM", {"operating systems"}, "SD", 2),
      TopicRequest("T12", "*", {"backend", "graph databases"}),
      TopicRequest("T13", "UX", {"frontend tooling", "machine learning"}),
  };
}

/// write_mix reads: two maintained team queries and one evaluated on Gc.
/// After each write the client reads A, B, C, then A and B again (cache
/// hits).
std::vector<Request> WriteReads() {
  const Request a = MakeRequest("Q1", gen::TeamQuery(0).ToText());
  const Request b = MakeRequest("Q2", gen::TeamQuery(1).ToText());
  const Request c = MakeRequest("R1", gen::RandomPattern(4, 4, 3, 0.5, 1).ToText());
  std::vector<Request> reads = {a, b, c, a, b};
  for (Request& r : reads) r.use_cache = true;
  return reads;
}

Pattern Parse(const std::string& text) {
  auto p = ParsePatternText(text);
  EF_CHECK(p.ok()) << p.status();
  return std::move(p).value();
}

QueryRequest ToQuery(const Request& r, Pattern pattern) {
  QueryRequest q;
  q.pattern = std::move(pattern);
  q.semantics = r.semantics;
  q.top_k = kTopK;
  q.metric = r.metric;
  q.use_cache = r.use_cache;
  q.topic_terms = r.terms;
  return q;
}

/// The oracle's own compilation of topic terms: every token of every term
/// becomes a `* has_token` condition on the output node.
Pattern OracleCompile(const Pattern& p, const std::vector<std::string>& terms) {
  Pattern out = p;
  std::set<std::string> tokens;
  for (const std::string& t : terms) {
    for (std::string& tok : Tokens(t)) tokens.insert(std::move(tok));
  }
  for (const std::string& tok : tokens) {
    out.mutable_node(*p.output_node())
        ->conditions.emplace_back("*", CmpOp::kHasToken, AttrValue(tok));
  }
  return out;
}

Relation ToRelation(const MatchRelation& m) {
  Relation r(m.NumPatternNodes());
  for (PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) r[u] = m.MatchesOf(u);
  if (m.IsEmpty()) {
    for (auto& list : r) list.clear();
  }
  return r;
}

/// Rounds of index warm-up: each pool request is sent this many times
/// before timing starts, enough uses for every match context of the
/// service to build its ball index (at the deepest bound it meets) and for
/// the topic index to build. Users do not pay these builds per query.
size_t IndexWarmRounds(const EngineOptions& e) {
  return std::max<size_t>(e.ball_index.build_after_uses, e.topic_index.build_after_uses);
}

ServiceOptions MakeServiceOptions(const std::string& wal_dir, bool compression) {
  ServiceOptions so;
  so.serving_threads = 1;
  so.engine.match_threads = 1;
  so.engine.use_compression = compression;
  so.durability.dir = wal_dir;
  so.durability.fsync_policy = FsyncPolicy::kEveryRecord;
  so.durability.background_checkpoints = false;
  return so;
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

/// Ordered best-first, ties toward the smaller id, `k` or all matches,
/// every node a distinct match of the output node.
void CheckRankedShape(const std::string& what, const std::vector<RankedMatch>& ranked,
                      const std::vector<NodeId>& matches, Outcome* out) {
  out->Check(ranked.size() == std::min(kTopK, matches.size()),
             what + ": top-k list has " + std::to_string(ranked.size()) +
                 " entries for " + std::to_string(matches.size()) + " matches");
  std::set<NodeId> seen;
  for (size_t i = 0; i < ranked.size(); ++i) {
    out->Check(std::binary_search(matches.begin(), matches.end(), ranked[i].node),
               what + ": ranked node is not a match of the output node");
    out->Check(seen.insert(ranked[i].node).second, what + ": ranked node repeated");
    if (i > 0) {
      const RankedMatch& a = ranked[i - 1];
      const RankedMatch& b = ranked[i];
      out->Check(a.score < b.score || (a.score == b.score && a.node < b.node),
                 what + ": ranked list out of order");
    }
  }
}

bool SameScore(double a, double b) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Social-impact top-k against the oracle's scores of every match.
void CheckSocialRanking(const std::string& what, const OracleGraph& og,
                        const Pattern& q, const Relation& m,
                        const std::vector<RankedMatch>& ranked, Outcome* out) {
  const std::vector<NodeId>& matches = m[*q.output_node()];
  CheckRankedShape(what, ranked, matches, out);
  if (ranked.empty()) return;
  const std::map<NodeId, double> scores = SocialImpact(og, q, m);
  std::set<NodeId> in_list;
  for (const RankedMatch& r : ranked) {
    in_list.insert(r.node);
    auto it = scores.find(r.node);
    out->Check(it != scores.end() && SameScore(r.score, it->second),
               what + ": score of node " + std::to_string(r.node) +
                   " differs from the oracle");
  }
  const NodeId kth = ranked.back().node;
  const double kth_score = scores.count(kth) ? scores.at(kth) : 0.0;
  for (const auto& [node, score] : scores) {
    if (in_list.count(node)) continue;
    out->Check(score > kth_score || (score == kth_score && node > kth),
               what + ": unranked match " + std::to_string(node) +
                   " scores better than the k-th");
  }
}

// ---------------------------------------------------------------------------
// The traced replay: the benchmark's own stack of layer objects, driven
// with the calls ExpFinderService::Mutate / Serve make, one span per call.
// ---------------------------------------------------------------------------

class Mirror {
 public:
  Mirror(const Graph& g, const EngineOptions& options,
         const std::vector<Pattern>& maintained, const std::string& wal_dir)
      : g_(g), options_(options), core_(options), cache_(options.cache_capacity) {
    if (options_.use_compression) {
      auto mc = MaintainedCompression::Create(&g_, options_.compression_schema);
      EF_CHECK(mc.ok()) << mc.status();
      compression_ = std::make_unique<MaintainedCompression>(std::move(mc).value());
    }
    MatchOptions mo;
    mo.ball_index = options_.ball_index;
    mo.topic_index = options_.topic_index;
    for (const Pattern& q : maintained) {
      Maintainer m;
      m.key = QueryCacheKey(q, MatchSemantics::kBoundedSimulation);
      if (q.IsSimulationPattern()) {
        m.sim = std::make_unique<IncrementalSimulation>(&g_, q, mo);
      } else {
        m.bounded = std::make_unique<IncrementalBoundedSimulation>(&g_, q, mo);
      }
      maintainers_.push_back(std::move(m));
    }
    DurabilityOptions d;
    d.dir = wal_dir;
    d.fsync_policy = FsyncPolicy::kEveryRecord;
    d.background_checkpoints = false;
    GraphRecoveryInfo info;
    auto durable = DurableGraph::Open(d, &g_, &info);
    EF_CHECK(durable.ok()) << durable.status();
    durable_ = std::move(durable).value();
    Publish(nullptr);
  }
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  const EngineSnapshot& snapshot() const { return *snap_; }

  /// QueryEngine::Publish: graph capture, frozen compressed view,
  /// materialised maintained relations.
  void Publish(Tracer* tr) {
    Span span(tr, "engine.publish");
    auto next = std::make_shared<EngineSnapshot>();
    {
      Span capture(tr, "graph.snapshot_capture");
      next->graph = g_.Publish();
    }
    if (compression_ != nullptr) {
      next->compressed = std::make_shared<const CompressedGraph>(compression_->current());
      next->compressed_graph = next->compressed->gc().Publish();
    }
    for (const Maintainer& m : maintainers_) {
      next->maintained.emplace(m.key, m.sim ? m.sim->Snapshot() : m.bounded->Snapshot());
    }
    next->version = g_.version();
    snap_ = std::move(next);
  }

  /// ExpFinderService::Mutate below the service: engine apply (incremental
  /// and compression maintenance), WAL append, publish, inline checkpoint.
  void Write(const UpdateBatch& batch, Tracer* tr) {
    {
      Span apply(tr, "engine.apply");
      Span inc(tr, "incremental.maintain");
      for (Maintainer& m : maintainers_) {
        if (m.sim) m.sim->PreUpdate(batch);
        else m.bounded->PreUpdate(batch);
      }
      inc.Close();
      EF_CHECK(ApplyBatch(&g_, batch).ok());
      Span post(tr, "incremental.maintain");
      for (Maintainer& m : maintainers_) {
        if (m.sim) m.sim->PostUpdate(batch);
        else m.bounded->PostUpdate(batch);
      }
      post.Close();
      if (compression_ != nullptr) {
        Span c(tr, "compression.maintain");
        compression_->OnGraphUpdated(batch);
      }
    }
    {
      Span wal(tr, "storage.wal_append");
      wal.Count("bytes", static_cast<double>(DurableGraph::EncodeBatch(batch).size()));
      EF_CHECK(durable_->LogBatch(batch).ok());
    }
    Publish(tr);
    if (durable_->CheckpointDue()) {
      Span cp(tr, "storage.checkpoint");
      EF_CHECK(durable_->Checkpoint(snap_->graph->graph(), durable_->next_lsn()).ok());
    }
  }

  /// ExpFinderService::Serve below the service: parse, compile, cache
  /// probe, maintained lookup or EvalCore::Evaluate (with the matching
  /// stages replayed one call each), result graph, ranking.
  void Read(const Request& r, Tracer* tr, bool rank = true) {
    Pattern request_pattern;
    {
      Span s(tr, "query.parse");
      request_pattern = Parse(r.text);
    }
    Pattern pattern = request_pattern;
    if (!r.terms.empty()) {
      Span s(tr, "query.compile");
      pattern = CompileTopicTerms(request_pattern, r.terms);
    }
    const EngineSnapshot& snap = *snap_;
    const uint64_t key = QueryCacheKey(pattern, r.semantics);
    std::shared_ptr<const QueryAnswer> answer;
    if (r.use_cache) {
      Span s(tr, "engine.cache_probe");
      answer = cache_.Get(key, snap.version);
      s.Count("hit", answer != nullptr ? 1 : 0);
    }
    if (answer == nullptr) {
      MatchRelation rel;
      if (const MatchRelation* m = snap.Maintained(key)) {
        Span s(tr, "engine.maintained_lookup");
        rel = *m;
      } else {
        EvalPath path = EvalPath::kDirect;
        {
          Span s(tr, "engine.evaluate");
          auto res = core_.Evaluate(snap, pattern, r.semantics, {}, &dctx_, &cctx_, &path);
          EF_CHECK(res.ok()) << res.status();
          rel = std::move(res).value();
        }
        if (path != EvalPath::kPlannerShortCircuit) ReplayMatching(snap, pattern, r, path, tr);
      }
      Span s(tr, "matching.result_graph");
      ResultGraph rg(snap.graph, pattern, rel, &dctx_);
      s.Count("edges", static_cast<double>(rg.NumEdges()));
      s.Close();
      answer = std::make_shared<const QueryAnswer>(QueryAnswer{std::move(rel), std::move(rg)});
      if (r.use_cache) cache_.Put(key, snap.version, answer);
    }
    if (!rank) return;
    if (r.metric == RankingMetric::kTopicFusion) {
      Span s(tr, "ranking.fusion");
      EF_CHECK(TopKTopicFusion(answer->result_graph, pattern, snap.graph->graph(), r.terms,
                               kTopK).ok());
    } else {
      Span s(tr, "ranking.social_impact");
      EF_CHECK(TopKMatchesWith(answer->result_graph, pattern, kTopK, r.metric).ok());
      s.Count("scored",
              static_cast<double>(answer->result_graph.MatchesOf(*pattern.output_node()).size()));
    }
  }

 private:
  struct Maintainer {
    uint64_t key = 0;
    std::unique_ptr<IncrementalSimulation> sim;
    std::unique_ptr<IncrementalBoundedSimulation> bounded;
  };

  /// Candidate seeding and the matcher, called one at a time on the graph
  /// the evaluation used (Gc on the compressed path), then decompression.
  void ReplayMatching(const EngineSnapshot& snap, const Pattern& q, const Request& r,
                      EvalPath path, Tracer* tr) {
    const bool compressed = path == EvalPath::kCompressed;
    const SnapshotPtr& gs = compressed ? snap.compressed_graph : snap.graph;
    MatchContext& ctx = compressed ? cctx_ : dctx_;
    ctx.BindSnapshot(gs);
    MatchOptions mo;
    mo.num_threads = options_.match_threads;
    mo.ball_index = options_.ball_index;
    mo.topic_index = options_.topic_index;
    const bool text = HasTextPredicates(q);
    const size_t hits0 = ctx.posting_hits(), falls0 = ctx.seed_scan_fallbacks();
    {
      Span s(tr, "matching.seed");
      CandidateSets c = ComputeCandidates(gs->graph(), q, mo, &ctx);
      size_t n = 0;
      for (const auto& list : c.list) n += list.size();
      s.Count("candidates", static_cast<double>(n));
      s.Count("text", text ? 1 : 0);
      s.Count("posting_hits", static_cast<double>(ctx.posting_hits() - hits0));
      s.Count("scan_fallbacks", static_cast<double>(ctx.seed_scan_fallbacks() - falls0));
    }
    const size_t ball0 = ctx.ball_hits(), bfs0 = ctx.bfs_fallbacks();
    MatchRelation rel;
    {
      Span s(tr, "matching.match");
      if (r.dual()) {
        rel = ComputeDualSimulation(gs, q, mo, &ctx);
      } else if (q.IsSimulationPattern()) {
        rel = ComputeSimulation(gs, q, mo, &ctx);
      } else {
        rel = ComputeBoundedSimulation(gs, q, mo, &ctx);
      }
      s.Count("pairs", static_cast<double>(rel.TotalPairs()));
      s.Count("compressed", compressed ? 1 : 0);
      s.Count("ball_hits", static_cast<double>(ctx.ball_hits() - ball0));
      s.Count("bfs_fallbacks", static_cast<double>(ctx.bfs_fallbacks() - bfs0));
    }
    if (compressed) {
      Span s(tr, "compression.decompress");
      snap.compressed->Decompress(rel);
    }
  }

  Graph g_;
  EngineOptions options_;
  EvalCore core_;
  ResultCache cache_;
  std::unique_ptr<MaintainedCompression> compression_;
  std::vector<Maintainer> maintainers_;
  std::unique_ptr<DurableGraph> durable_;
  std::shared_ptr<const EngineSnapshot> snap_;
  MatchContext dctx_, cctx_;
};

// ---------------------------------------------------------------------------
// The client: one closed-loop thread issuing reads and writes.
// ---------------------------------------------------------------------------

struct Client {
  ExpFinderService* svc = nullptr;
  Mirror* mirror = nullptr;  // traced runs only
  Tracer* tr = nullptr;      // traced runs only
  Outcome* out = nullptr;

  std::vector<double> query_ms;
  std::vector<double> mutate_ms;
  std::vector<double> replica_ms;
  /// Wall time of the real service calls inside traced requests, so the
  /// replay's own cost can be reported.
  double service_ms_in_traced = 0;
  double traced_wall_ms = 0;
  size_t traced_requests = 0;

  /// One read as the client issues it: parse the request text, submit,
  /// wait. Returns the response, or nullopt when the request failed.
  std::optional<QueryResponse> Read(const Request& r, std::optional<uint64_t> min_version = {}) {
    const Clock::time_point t0 = Clock::now();
    std::optional<Span> root;
    if (tr != nullptr) {
      tr->BeginRequest();
      root.emplace(tr, "request");
    }
    std::optional<Span> call;
    if (tr != nullptr) call.emplace(tr, "service.query");
    QueryRequest q = ToQuery(r, Parse(r.text));
    q.min_version = min_version;
    Result<QueryResponse> res = svc->Query(q);
    const double ms = MsSince(t0);
    query_ms.push_back(ms);
    ++out->attempted;
    if (!res.ok()) {
      ++out->failed;
      out->errors.push_back(r.name + ": query failed: " + res.status().ToString());
      return std::nullopt;
    }
    if (tr != nullptr) {
      call->Count("queue_ms", res->queue_ms);
      call.reset();
      service_ms_in_traced += ms;
      mirror->Read(r, tr);
      root.reset();
      traced_wall_ms += MsSince(t0);
      ++traced_requests;
    }
    return std::move(res).value();
  }
};

/// Writes through the service, checks them against a shadow edge set kept
/// by the benchmark, and feeds a replica from the WAL on the client thread.
class Writer {
 public:
  /// `svc` takes the writes; `mirror` (traced runs) replays them.
  Writer(Client* client, ExpFinderService* svc, Mirror* mirror, const std::string& wal_dir,
         uint64_t seed, double seconds)
      : client_(client), svc_(svc), mirror_(mirror), wal_dir_(wal_dir),
        shadow_(OracleGraph::CopyOf(svc->graph())),
        updates_(GenerateUpdateStream(
            svc->graph(),
            kBatchUpdates * (kMinWrites + kMaxWritesPerSecond * static_cast<size_t>(seconds)),
            0.5, seed)),
        stream_(wal_dir) {
    Reanchor();
  }

  bool Exhausted() const { return next_ + kBatchUpdates > updates_.size(); }
  const OracleGraph& shadow() const { return shadow_; }

  /// One acknowledged write plus its replica apply; returns the version the
  /// write produced, or 0 when it failed.
  uint64_t Step() {
    Outcome* out = client_->out;
    Tracer* tr = client_->tr;
    UpdateBatch batch(updates_.begin() + static_cast<std::ptrdiff_t>(next_),
                      updates_.begin() + static_cast<std::ptrdiff_t>(next_ + kBatchUpdates));
    next_ += kBatchUpdates;
    const Clock::time_point t0 = Clock::now();
    std::optional<Span> root;
    if (tr != nullptr) {
      tr->BeginRequest();
      root.emplace(tr, "request");
    }
    std::optional<Span> call;
    if (tr != nullptr) call.emplace(tr, "service.mutate");
    Status st = svc_->Mutate(batch);
    const double ms = MsSince(t0);
    call.reset();
    client_->mutate_ms.push_back(ms);
    ++out->attempted;
    if (!st.ok()) {
      ++out->failed;
      out->errors.push_back("mutate failed: " + st.ToString());
      return 0;
    }
    for (const GraphUpdate& u : batch) {
      const bool applied = u.kind == GraphUpdate::Kind::kInsertEdge ? shadow_.Insert(u.src, u.dst)
                                                                     : shadow_.Erase(u.src, u.dst);
      out->Check(applied, "update stream does not apply to the shadow graph");
    }
    const uint64_t version = svc_->version();
    if (tr != nullptr) mirror_->Write(batch, tr);

    const Clock::time_point r0 = Clock::now();
    Result<DeltaBatch> deltas = [&] {
      Span s(tr, "replication.decode");
      return stream_.Poll(64);
    }();
    if (deltas.ok() && (deltas->lost_prefix || deltas->deltas.empty())) {
      // A checkpoint inside the Mutate truncated the segment the replica
      // was tailing: re-anchor from that checkpoint, as the replica
      // contract prescribes, and read on from its LSN. The write was
      // acknowledged, so an empty tail means the same thing: when the
      // checkpoint removed every segment, the tail reports no gap.
      Span s(tr, "replication.reanchor");
      Reanchor();
      deltas = stream_.Poll(64);
    }
    Status applied = Status::OK();
    if (deltas.ok()) {
      Span s(tr, "replication.apply");
      applied = replica_.Apply(*deltas);
    }
    const double rms = MsSince(r0);
    client_->replica_ms.push_back(rms);
    out->Check(deltas.ok() && !deltas->lost_prefix && applied.ok(),
               "replica could not apply the WAL tail");
    out->Check(replica_.version() == version,
               "replica version " + std::to_string(replica_.version()) +
                   " != primary version " + std::to_string(version));
    if (tr != nullptr) {
      client_->service_ms_in_traced += ms + rms;
      root.reset();
      client_->traced_wall_ms += MsSince(t0);
      ++client_->traced_requests;
    }
    return version;
  }

  /// End state: primary == shadow, replica == primary.
  void CheckEndState() {
    const ExpFinderService& svc = *svc_;
    Outcome* out = client_->out;
    const auto primary = OracleGraph::CopyOf(svc.graph()).Edges();
    out->Check(primary == shadow_.Edges(), "primary edge set differs from the shadow");
    out->Check(OracleGraph::CopyOf(replica_.graph()).Edges() == primary,
               "replica graph differs from the primary");
    out->Check(replica_.version() == svc.version(), "replica version differs at the end");
  }

  /// Reopens the WAL directory (after the service is destroyed) and
  /// compares the recovered graph with the shadow.
  void CheckRecovery() {
    DurabilityOptions d;
    d.dir = wal_dir_;
    d.fsync_policy = FsyncPolicy::kEveryRecord;
    Graph recovered;
    GraphRecoveryInfo info;
    auto durable = DurableGraph::Open(d, &recovered, &info);
    client_->out->Check(durable.ok() && !info.data_loss, "reopening the WAL failed");
    client_->out->Check(OracleGraph::CopyOf(recovered).Edges() == shadow_.Edges(),
                        "WAL recovery differs from the shadow edge set");
  }

 private:
  void Reanchor() {
    auto boot = LoadReplicaBootstrap(wal_dir_, nullptr);
    EF_CHECK(boot.ok()) << boot.status();
    stream_.Seek(boot->next_lsn);
    replica_.Install(std::move(boot).value());
  }

  Client* client_;
  ExpFinderService* svc_;
  Mirror* mirror_;
  std::string wal_dir_;
  OracleGraph shadow_;
  UpdateBatch updates_;
  size_t next_ = 0;
  Replica replica_{0};
  DeltaStream stream_;
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

void AddEndToEnd(const Client& c, double setup_s, double queries_per_s, double peak_rss_mb,
                 Outcome* out) {
  out->Add("setup_s", "s", setup_s);
  out->Add("query_p50_ms", "ms", Median(c.query_ms));
  out->Add("query_p95_ms", "ms", Quantile(c.query_ms, 0.95));
  out->Add("queries_per_s", "1/s", queries_per_s);
  out->Add("mutate_p50_ms", "ms", Median(c.mutate_ms));
  out->Add("mutate_p90_ms", "ms", Quantile(c.mutate_ms, 0.90));
  out->Add("replica_apply_p50_ms", "ms", Median(c.replica_ms));
  out->Add("peak_rss_mb", "MB", peak_rss_mb);
}

struct SetupFigures {
  double node_reduction_pct = 0;
  double ball_index_build_ms = 0;
  double topic_index_build_ms = 0;
};

void AddPerLayer(const Client& c, const Tracer& tr, const SetupFigures& fig, Outcome* out) {
  auto median = [&](const std::string& span) { return Median(tr.Durations(span)); };
  auto count_median = [&](const std::string& span, const std::string& key) {
    return Median(tr.Counts(span, key));
  };
  auto count_sum = [&](const std::string& span, const std::string& key) {
    return Sum(tr.Counts(span, key));
  };
  // Per-request sums of spans that a request may open twice.
  auto per_request_ms = [&](const std::string& span) {
    std::map<uint64_t, double> total;
    for (const SpanRecord& s : tr.spans()) {
      if (s.name == span) total[s.request] += s.Ms();
    }
    std::vector<double> v;
    for (const auto& [req, ms] : total) v.push_back(ms);
    return Median(v);
  };
  // Seed and matcher spans, split by what the request exercised.
  std::vector<double> fixpoint, compressed_match, text_seed;
  const auto& spans = tr.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "matching.match") continue;
    double seed_ms = 0;
    for (size_t j = i; j-- > 0 && spans[j].request == spans[i].request;) {
      if (spans[j].name == "matching.seed") {
        seed_ms = spans[j].Ms();
        for (const auto& [k, v] : spans[j].counts) {
          if (k == "text" && v > 0) text_seed.push_back(seed_ms);
        }
        break;
      }
    }
    fixpoint.push_back(std::max(0.0, spans[i].Ms() - seed_ms));
    for (const auto& [k, v] : spans[i].counts) {
      if (k == "compressed" && v > 0) compressed_match.push_back(spans[i].Ms());
    }
  }
  out->Add("service.queue_ms", "ms", count_median("service.query", "queue_ms"));
  out->Add("query.parse_ms", "ms", median("query.parse"));
  out->Add("query.compile_ms", "ms", median("query.compile"));
  out->Add("engine.evaluate_ms", "ms", median("engine.evaluate"));
  out->Add("engine.publish_ms", "ms", median("engine.publish"));
  out->Add("engine.cache_hits", "count", count_sum("engine.cache_probe", "hit"));
  out->Add("engine.cache_probes", "count",
           static_cast<double>(tr.Durations("engine.cache_probe").size()));
  out->Add("graph.snapshot_capture_ms", "ms", median("graph.snapshot_capture"));
  out->Add("graph.ball_index_build_ms", "ms", fig.ball_index_build_ms);
  out->Add("matching.seed_ms", "ms", median("matching.seed"));
  out->Add("matching.candidates", "count", count_median("matching.seed", "candidates"));
  out->Add("matching.fixpoint_ms", "ms", Median(fixpoint));
  out->Add("matching.pairs", "count", count_median("matching.match", "pairs"));
  out->Add("matching.ball_hits", "count", count_sum("matching.match", "ball_hits"));
  out->Add("matching.bfs_fallbacks", "count", count_sum("matching.match", "bfs_fallbacks"));
  out->Add("matching.result_graph_ms", "ms", median("matching.result_graph"));
  out->Add("matching.result_graph_edges", "count",
           count_median("matching.result_graph", "edges"));
  out->Add("compression.match_ms", "ms", Median(compressed_match));
  out->Add("compression.decompress_ms", "ms", median("compression.decompress"));
  out->Add("compression.node_reduction", "%", fig.node_reduction_pct);
  out->Add("compression.maintain_ms", "ms", median("compression.maintain"));
  out->Add("ranking.social_impact_ms", "ms", median("ranking.social_impact"));
  out->Add("ranking.scored", "count", count_median("ranking.social_impact", "scored"));
  out->Add("ranking.fusion_ms", "ms", median("ranking.fusion"));
  out->Add("index.build_ms", "ms", fig.topic_index_build_ms);
  out->Add("index.seed_ms", "ms", Median(text_seed));
  out->Add("index.posting_hits", "count", count_sum("matching.seed", "posting_hits"));
  out->Add("index.scan_fallbacks", "count", count_sum("matching.seed", "scan_fallbacks"));
  out->Add("incremental.maintain_ms", "ms", per_request_ms("incremental.maintain"));
  out->Add("storage.wal_append_ms", "ms", median("storage.wal_append"));
  out->Add("storage.wal_bytes_per_batch", "bytes", count_median("storage.wal_append", "bytes"));
  out->Add("storage.checkpoint_ms", "ms", median("storage.checkpoint"));
  out->Add("replication.decode_ms", "ms", median("replication.decode"));
  out->Add("replication.apply_ms", "ms", median("replication.apply"));
  out->Add("trace.overhead_ms", "ms",
           c.traced_requests == 0
               ? 0.0
               : (c.traced_wall_ms - c.service_ms_in_traced) /
                     static_cast<double>(c.traced_requests));
}

SetupFigures MeasureSetupFigures(const ExpFinderService& svc, bool topics) {
  SetupFigures fig;
  if (const CompressedGraph* cg = svc.compressed()) {
    fig.node_reduction_pct = 100.0 * (1.0 - cg->NodeRatio());
  }
  SnapshotPtr fresh = svc.graph().Publish();
  BallIndexOptions eager = svc.options().engine.ball_index;
  eager.build_after_uses = 1;
  bool built = false;
  const Clock::time_point t0 = Clock::now();
  fresh->BallIndex(3, eager, nullptr, 1, &built);
  fig.ball_index_build_ms = MsSince(t0);
  if (topics) {
    const Clock::time_point t1 = Clock::now();
    const auto index = TopicIndex::Build(svc.graph(), svc.options().engine.topic_index);
    fig.topic_index_build_ms = MsSince(t1);
    EF_CHECK(index != nullptr);
  }
  return fig;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Captured {
  bool seen = false;
  QueryResponse response;
};

/// The window ends when its time is up and every percentile has enough
/// samples; ending earlier means the update stream ran out.
void CheckWindow(double window_ms, const RunConfig& cfg, const Client& c, Outcome* out) {
  out->Check(window_ms >= cfg.seconds * 1e3 && c.query_ms.size() >= kMinQueries &&
                 c.mutate_ms.size() >= kMinWrites,
             "update stream ran out after " + std::to_string(c.mutate_ms.size()) +
                 " writes in a " + std::to_string(window_ms / 1e3) + " s window");
}

/// Checks every distinct read of the pool once against the oracle.
void VerifyReads(const std::vector<Request>& pool, const std::vector<Captured>& captured,
                 ExpFinderService* svc, const OracleGraph& og, Outcome* out) {
  for (size_t i = 0; i < pool.size(); ++i) {
    const Request& r = pool[i];
    if (!captured[i].seen) continue;  // failed requests are already counted
    const Pattern p = Parse(r.text);
    const QueryResponse& resp = captured[i].response;
    if (r.terms.empty()) {
      const Relation want = Simulate(og, p, r.dual());
      out->Check(ToRelation(resp.answer->matches) == want,
                 r.name + ": relation differs from the oracle fixpoint");
      out->Check(Pairs(want) > 0, r.name + ": pool request has no match");
      const ServingPath expect = r.dual() ? ServingPath::kDirect : ServingPath::kCompressed;
      out->Check(resp.path == expect, r.name + ": served by path " +
                                          std::string(ServingPathName(resp.path)));
      CheckSocialRanking(r.name, og, p, want, resp.ranked, out);
      continue;
    }
    const Pattern compiled = OracleCompile(p, r.terms);
    const Relation want = Simulate(og, compiled, false);
    out->Check(Pairs(want) > 0, r.name + ": pool request has no match");
    out->Check(ToRelation(resp.answer->matches) == want,
               r.name + ": relation differs from the oracle scan");
    CheckRankedShape(r.name, resp.ranked, want[*p.output_node()], out);
    for (bool use_index : {true, false}) {
      QueryRequest q = ToQuery(r, p);
      q.use_topic_index = use_index;
      auto res = svc->Query(q);
      const std::string what = r.name + (use_index ? " (posting-seeded)" : " (scan-seeded)");
      out->Check(res.ok() && ToRelation(res->answer->matches) == want,
                 what + ": relation differs from the oracle scan");
    }
  }
}

void RunReadWorkload(const RunConfig& cfg, bool topics, Outcome* out) {
  std::vector<Request> pool = topics ? TopicPool() : TeamPool();
  // Set-up: the graph, the read service, compression, index warm-up. The
  // warm-up requests are unranked: ranking builds nothing that lasts.
  Graph g = CollaborationGraph(topics);
  const ServiceOptions so = MakeServiceOptions(cfg.run_dir + "/wal", !topics);
  auto svc = std::make_unique<ExpFinderService>(&g, so);
  EF_CHECK(svc->durable()) << svc->durability_status();
  if (!topics) EF_CHECK(svc->CompressNow().ok());
  const size_t warm_rounds = IndexWarmRounds(so.engine);
  for (size_t round = 0; round < warm_rounds; ++round) {
    for (const Request& r : pool) {
      QueryRequest q = ToQuery(r, Parse(r.text));
      q.top_k.reset();
      EF_CHECK(svc->Query(q).ok());
    }
  }
  const double setup_s = MsSince(cfg.process_start) / 1e3;

  // The write probe goes to a twin with the same graph and configuration,
  // so its samples spread over the whole window without ever invalidating
  // the read service's warm state. The twin is the benchmark's own
  // apparatus, so it is made after set-up.
  Graph twin_graph = CollaborationGraph(topics);
  ServiceOptions twin_so = so;
  twin_so.durability.dir = cfg.run_dir + "/twin-wal";
  auto twin = std::make_unique<ExpFinderService>(&twin_graph, twin_so);
  EF_CHECK(twin->durable()) << twin->durability_status();
  if (!topics) EF_CHECK(twin->CompressNow().ok());
  Client client;
  client.svc = svc.get();
  client.out = out;

  // Traced runs replay every request on the benchmark's own layer stacks,
  // warmed like the services.
  Tracer tracer;
  std::unique_ptr<Mirror> mirror, twin_mirror;
  SetupFigures fig;
  if (cfg.trace) {
    fig = MeasureSetupFigures(*svc, topics);
    mirror = std::make_unique<Mirror>(svc->graph(), so.engine, std::vector<Pattern>{},
                                      cfg.run_dir + "/mirror-wal");
    twin_mirror = std::make_unique<Mirror>(twin->graph(), so.engine, std::vector<Pattern>{},
                                           cfg.run_dir + "/twin-mirror-wal");
    client.mirror = mirror.get();
    for (size_t round = 0; round < warm_rounds; ++round) {
      for (const Request& r : pool) mirror->Read(r, nullptr, /*rank=*/false);
    }
    client.tr = &tracer;
  }
  Writer writer(&client, twin.get(), twin_mirror.get(), twin_so.durability.dir,
                cfg.seed + 101, cfg.seconds);
  const OracleGraph og = OracleGraph::CopyOf(svc->graph());
  const uint64_t version = svc->version();

  // Timed window: whole rounds of the pool in a seeded order, each followed
  // by a fixed number of probe writes, until the time is up and every
  // percentile has enough samples.
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<Captured> captured(pool.size());
  std::vector<double> round_rates;
  const Clock::time_point w0 = Clock::now();
  while ((MsSince(w0) < cfg.seconds * 1e3 || client.query_ms.size() < kMinQueries ||
          client.mutate_ms.size() < kMinWrites) &&
         !writer.Exhausted()) {
    std::shuffle(order.begin(), order.end(), rng);
    const Clock::time_point r0 = Clock::now();
    for (size_t i : order) {
      auto resp = client.Read(pool[i]);
      if (resp && !captured[i].seen) {
        out->Check(resp->graph_version == version, pool[i].name + ": wrong version");
        captured[i] = {true, std::move(*resp)};
      }
    }
    round_rates.push_back(static_cast<double>(pool.size()) / (MsSince(r0) / 1e3));
    for (size_t i = 0; i < kProbeWritesPerRound; ++i) writer.Step();
  }
  const double peak_rss_mb = PeakRssMb();
  CheckWindow(MsSince(w0), cfg, client, out);
  client.tr = nullptr;
  VerifyReads(pool, captured, svc.get(), og, out);
  writer.CheckEndState();
  twin.reset();
  writer.CheckRecovery();
  if (cfg.trace) {
    AddPerLayer(client, tracer, fig, out);
    tracer.Write(cfg.run_dir + "/../trace-" + cfg.workload + ".jsonl");
  } else {
    AddEndToEnd(client, setup_s, Median(round_rates), peak_rss_mb, out);
  }
}

void RunWriteMix(const RunConfig& cfg, Outcome* out) {
  const std::string wal_dir = cfg.run_dir + "/wal";
  const std::string mirror_dir = cfg.run_dir + "/mirror-wal";
  const std::vector<Request> reads = WriteReads();
  const std::vector<Pattern> maintained = {Parse(reads[0].text), Parse(reads[1].text)};

  Graph g = CollaborationGraph(false);
  ServiceOptions so = MakeServiceOptions(wal_dir, true);
  auto svc = std::make_unique<ExpFinderService>(&g, so);
  EF_CHECK(svc->durable()) << svc->durability_status();
  EF_CHECK(svc->CompressNow().ok());
  for (const Pattern& q : maintained) EF_CHECK(svc->RegisterMaintainedQuery(q).ok());
  Client client;
  client.svc = svc.get();
  client.out = out;
  const double setup_s = MsSince(cfg.process_start) / 1e3;

  Tracer tracer;
  std::unique_ptr<Mirror> mirror;
  SetupFigures fig;
  if (cfg.trace) {
    fig = MeasureSetupFigures(*svc, false);
    mirror = std::make_unique<Mirror>(svc->graph(), so.engine, maintained, mirror_dir);
    client.mirror = mirror.get();
    client.tr = &tracer;
  }
  Writer writer(&client, svc.get(), mirror.get(), wal_dir, cfg.seed + 101, cfg.seconds);

  // Timed window: rounds of one write followed by read-your-writes reads.
  std::vector<double> round_rates;
  const Clock::time_point w0 = Clock::now();
  while ((MsSince(w0) < cfg.seconds * 1e3 || client.mutate_ms.size() < kMinWrites) &&
         !writer.Exhausted()) {
    const Clock::time_point r0 = Clock::now();
    const uint64_t version = writer.Step();
    if (version == 0) continue;
    for (const Request& r : reads) {
      auto resp = client.Read(r, version);
      if (!resp) continue;
      out->Check(resp->graph_version == version,
                 r.name + ": read-your-writes response reports version " +
                     std::to_string(resp->graph_version) + ", write produced " +
                     std::to_string(version));
    }
    round_rates.push_back(static_cast<double>(reads.size()) / (MsSince(r0) / 1e3));
  }
  const double peak_rss_mb = PeakRssMb();
  CheckWindow(MsSince(w0), cfg, client, out);
  client.tr = nullptr;

  // End state at the final version.
  writer.CheckEndState();
  for (size_t i = 0; i < 3; ++i) {
    const Request& r = reads[i];
    const Pattern p = Parse(r.text);
    QueryRequest q = ToQuery(r, p);
    q.use_cache = false;
    auto res = svc->Query(q);
    const Relation want = Simulate(writer.shadow(), p, false);
    out->Check(res.ok() && ToRelation(res->answer->matches) == want,
               r.name + ": final relation differs from the oracle");
    if (i < 2) {
      out->Check(res.ok() && res->path == ServingPath::kMaintained,
                 r.name + ": not served from its maintained state");
    }
  }
  svc.reset();
  writer.CheckRecovery();
  if (cfg.trace) {
    AddPerLayer(client, tracer, fig, out);
    tracer.Write(cfg.run_dir + "/../trace-" + cfg.workload + ".jsonl");
  } else {
    AddEndToEnd(client, setup_s, Median(round_rates), peak_rss_mb, out);
  }
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "team_search" || name == "topic_search" || name == "write_mix";
}

void RunWorkload(const RunConfig& config, Outcome* out) {
  if (config.workload == "write_mix") {
    RunWriteMix(config, out);
  } else {
    RunReadWorkload(config, config.workload == "topic_search", out);
  }
}

void SelfCheckFig1(Outcome* out) {
  const Graph g = gen::BuildFig1Graph();
  const Pattern q = gen::BuildFig1Pattern();
  const PatternNodeId sa = *q.FindNode("SA"), sd = *q.FindNode("SD");
  const PatternNodeId ba = *q.FindNode("BA"), st = *q.FindNode("ST");
  using F = gen::Fig1;

  // The oracle, against the paper's numbers.
  OracleGraph og = OracleGraph::CopyOf(g);
  const Relation before = Simulate(og, q, false);
  Relation expected(q.NumNodes());
  expected[sa] = {F::kBob, F::kWalt};
  expected[ba] = {F::kJean};
  expected[sd] = {F::kMat, F::kDan, F::kPat};
  expected[st] = {F::kEva};
  for (auto& list : expected) std::sort(list.begin(), list.end());
  out->Check(Pairs(before) == 7 && before == expected,
             "fig1: oracle M(Q,G) is not the paper's seven pairs");
  const auto scores = SocialImpact(og, q, before);
  out->Check(scores.count(F::kBob) && SameScore(scores.at(F::kBob), 9.0 / 5.0),
             "fig1: oracle f(SA,Bob) != 9/5");
  out->Check(scores.count(F::kWalt) && SameScore(scores.at(F::kWalt), 7.0 / 3.0),
             "fig1: oracle f(SA,Walt) != 7/3");
  const auto [e1_src, e1_dst] = gen::Fig1EdgeE1();
  OracleGraph og_after = og;
  out->Check(og_after.Insert(e1_src, e1_dst), "fig1: e1 already present");
  Relation after = Simulate(og_after, q, false);
  Relation expected_after = expected;
  expected_after[sd].push_back(F::kFred);
  std::sort(expected_after[sd].begin(), expected_after[sd].end());
  out->Check(after == expected_after, "fig1: inserting e1 must add exactly (SD, Fred)");

  // The service, against the same facts.
  Graph live = g;
  ServiceOptions so;
  so.serving_threads = 1;
  so.engine.match_threads = 1;
  ExpFinderService svc(&live, so);
  QueryRequest req;
  req.pattern = q;
  req.top_k = 2;
  req.use_cache = false;
  auto res = svc.Query(req);
  out->Check(res.ok() && ToRelation(res->answer->matches) == expected,
             "fig1: service M(Q,G) differs from the paper");
  out->Check(res.ok() && res->ranked.size() == 2 && res->ranked[0].node == F::kBob &&
                 SameScore(res->ranked[0].score, 9.0 / 5.0) &&
                 res->ranked[1].node == F::kWalt &&
                 SameScore(res->ranked[1].score, 7.0 / 3.0),
             "fig1: service ranking is not Bob 9/5, Walt 7/3");
  out->Check(svc.Mutate({GraphUpdate::Insert(e1_src, e1_dst)}).ok(),
             "fig1: service refused e1");
  auto res_after = svc.Query(req);
  out->Check(res_after.ok() && ToRelation(res_after->answer->matches) == expected_after,
             "fig1: service relation after e1 must add exactly (SD, Fred)");
}

}  // namespace perfbench
