// Immutable, refcounted publication unit of a Graph — the object every
// layer above the storage now reads from (ISSUE 6; the shape the production
// expert-finding systems we track converge on: queries run against a
// published immutable index state, never against the live-mutated store).
//
// A GraphSnapshot bundles everything one evaluation needs, frozen at a
// version:
//
//   * a private copy of the attributed graph (labels, label index,
//     attributes — matchers and planners read them directly),
//   * the CSR topology snapshot, built eagerly exactly once per published
//     version (readers share it instead of each MatchContext rebuilding its
//     own),
//   * a lazily attached, shared KhopIndex with the same deferred-build /
//     failure-memoization / grow-only-depth policy MatchContext used to
//     implement per context — but built once and scanned by every reader of
//     this version.
//
// Handles are shared_ptr<const GraphSnapshot>: whoever pins one may read it
// lock-free for as long as the handle lives, concurrently with any number
// of other readers and with writers publishing newer versions. The only
// internal mutability is the ball-index slot, which is guarded by a mutex
// on the build path and published through an atomic pointer on the read
// path; an index superseded by a deeper rebuild is retired into a
// keep-alive list, never freed, so a reader scanning it mid-replacement
// stays valid for the snapshot's lifetime.

#ifndef EXPFINDER_GRAPH_GRAPH_SNAPSHOT_H_
#define EXPFINDER_GRAPH_GRAPH_SNAPSHOT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/khop_index.h"

namespace expfinder {

class ThreadPool;
class TopicIndex;
struct TopicIndexOptions;

/// \brief One published, immutable version of a Graph: private graph copy +
/// CSR + lazily attached shared ball index.
class GraphSnapshot : public std::enable_shared_from_this<GraphSnapshot> {
 public:
  /// Captures the current state of `g` (O(n + m + attrs) copy + CSR build).
  /// Prefer Graph::Publish(), which reads as what it is.
  static std::shared_ptr<const GraphSnapshot> Capture(const Graph& g);

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  /// The frozen attributed graph. Safe for concurrent readers; nothing ever
  /// mutates it after Capture.
  const Graph& graph() const { return graph_; }
  /// The frozen topology, built at Capture (snapshot readers never build
  /// CSRs of their own).
  const Csr& csr() const { return csr_; }

  uint64_t version() const { return graph_.version(); }
  uint64_t uid() const { return graph_.uid(); }

  /// The shared k-hop ball index at (at least) `depth`, building it if this
  /// call crosses the deferred-build threshold, or nullptr when the caller
  /// must BFS (index disabled, depth 0 / unbounded / beyond limits, build
  /// over budget, or not enough observed reuse yet). Semantics mirror
  /// MatchContext::BallIndexFor, lifted to the snapshot so the build is
  /// paid once per published version instead of once per worker context:
  /// grow-only in depth, failed depths memoized, the first
  /// limits.build_after_uses - 1 calls return nullptr without building.
  /// `pool`/`workers` parallelize a build this call triggers (the caller's
  /// seeding pool; nullptr/1 builds serially). Thread-safe: builders are
  /// serialized on an internal mutex, readers are lock-free, and a
  /// shallower index replaced by a deeper build is retired, not freed.
  /// `built_now` (optional) reports whether this call paid a build, so
  /// per-context telemetry can attribute it.
  const KhopIndex* BallIndex(Distance depth, const BallIndexOptions& limits,
                             ThreadPool* pool, size_t workers,
                             bool* built_now) const;

  /// The already-built index, or nullptr — never builds, never counts a
  /// use. For secondary consumers (ResultGraph construction) riding on
  /// whatever the matchers warmed. Lock-free.
  const KhopIndex* CachedBallIndex() const {
    return published_ball_.load(std::memory_order_acquire);
  }

  /// The shared topic inverted index (see index/topic_index.h), building it
  /// if this call crosses its deferred threshold. Unlike the ball slot,
  /// which this snapshot owns, the topic slot rides on the frozen graph
  /// copy and is *shared across snapshots* published over pure edge churn —
  /// content mutations replace it, so a hit here is always current. Returns
  /// nullptr when there is nothing to index yet, the build is deferred or
  /// refused, or the index is disabled. Thread-safe; `built_now` (optional)
  /// reports whether this call paid the build.
  const TopicIndex* TopicIndexFor(const TopicIndexOptions& limits,
                                  bool* built_now) const;

  /// The already-built topic index, or nullptr — never builds, never counts
  /// a use. Lock-free.
  const TopicIndex* CachedTopicIndex() const;

 private:
  explicit GraphSnapshot(const Graph& g) : graph_(g), csr_(graph_) {
    graph_.frozen_in_.snapshot = this;
  }

  Graph graph_;  // declared before csr_: the CSR is built over the copy
  Csr csr_;

  /// Ball-index slot. ball_mu_ serializes builds and all non-atomic state
  /// below; published_ball_ is the read-side publication point.
  mutable std::mutex ball_mu_;
  mutable std::unique_ptr<KhopIndex> ball_index_;
  /// Indexes superseded by deeper rebuilds, kept alive for readers that
  /// grabbed them before the swap (snapshot lifetime = handle lifetime).
  mutable std::vector<std::unique_ptr<KhopIndex>> retired_balls_;
  /// The limits the slot is keyed on (first builder wins; calls under
  /// different limits fall back to BFS rather than thrash the shared slot).
  mutable BallIndexOptions ball_limits_;
  mutable bool ball_limits_set_ = false;
  /// Smallest depth whose build blew the budget (0 = none): deeper builds
  /// can only be bigger, so they are refused without retrying.
  mutable Distance ball_failed_depth_ = 0;
  /// Matcher runs observed (drives the deferred build, shared across every
  /// reader of this snapshot).
  mutable size_t ball_uses_ = 0;
  mutable std::atomic<const KhopIndex*> published_ball_{nullptr};
};

/// The handle type every layer passes around.
using SnapshotPtr = std::shared_ptr<const GraphSnapshot>;

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_GRAPH_SNAPSHOT_H_
