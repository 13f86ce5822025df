// GraphSnapshot: the immutable publication unit (ISSUE 6). Capture
// semantics (a private frozen copy, isolated from later mutation of the
// source), handle identity through Graph::Publish, and the shared lazy
// ball-index slot: deferred build, grow-only depth, first-limits-wins,
// failure memoization, and lock-free cached reads — all per snapshot, not
// per context.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/match_context.h"
#include "src/util/thread_pool.h"

namespace expfinder {
namespace {

BallIndexOptions EagerLimits() {
  BallIndexOptions limits;
  limits.build_after_uses = 1;
  return limits;
}

TEST(GraphSnapshotTest, CaptureFreezesTheGraph) {
  Graph g = gen::BuildFig1Graph();
  const uint64_t version = g.version();
  const size_t nodes = g.NumNodes();
  const size_t edges = g.NumEdges();
  SnapshotPtr snap = g.Publish();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), version);
  EXPECT_EQ(snap->uid(), g.uid());
  EXPECT_EQ(snap->csr().NumNodes(), nodes);

  // Mutating the source after capture must not leak into the snapshot.
  NodeId extra = g.AddNode("HR");
  ASSERT_TRUE(g.AddEdge(extra, 0).ok());
  EXPECT_GT(g.version(), version);
  EXPECT_EQ(snap->version(), version);
  EXPECT_EQ(snap->graph().NumNodes(), nodes);
  EXPECT_EQ(snap->graph().NumEdges(), edges);
  EXPECT_EQ(snap->csr().NumNodes(), nodes);
}

TEST(GraphSnapshotTest, PublishingTheFrozenCopyReturnsItsSnapshot) {
  Graph g = gen::BuildFig1Graph();
  SnapshotPtr snap = g.Publish();
  EXPECT_EQ(snap->graph().Publish(), snap);
  // A copy of the frozen graph is an ordinary graph again: it captures anew.
  Graph copy = snap->graph();
  SnapshotPtr fresh = copy.Publish();
  EXPECT_NE(fresh, snap);
  EXPECT_EQ(fresh->graph().Publish(), fresh);
  copy = snap->graph();
  EXPECT_NE(copy.Publish(), snap);
  EXPECT_NE(g.Publish(), snap);
}

TEST(GraphSnapshotTest, MatchersAgreeOnSnapshotAndLiveGraph) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  SnapshotPtr snap = g.Publish();
  MatchContext ctx;
  MatchRelation via_snapshot = ComputeBoundedSimulation(snap, q, {}, &ctx);
  MatchRelation via_graph = ComputeBoundedSimulation(g, q);
  EXPECT_TRUE(via_snapshot == via_graph);
  EXPECT_EQ(via_snapshot.TotalPairs(), 7u);
  // The context is bound to the snapshot and shares its CSR.
  EXPECT_EQ(ctx.bound_snapshot(), snap);
}

TEST(GraphSnapshotTest, BallIndexDeferredUntilObservedReuse) {
  Graph g = gen::BuildFig1Graph();
  SnapshotPtr snap = g.Publish();
  BallIndexOptions limits;
  limits.build_after_uses = 3;
  bool built_now = false;
  // The first build_after_uses - 1 calls observe a use but refuse to build.
  EXPECT_EQ(snap->BallIndex(2, limits, nullptr, 1, &built_now), nullptr);
  EXPECT_FALSE(built_now);
  EXPECT_EQ(snap->BallIndex(2, limits, nullptr, 1, &built_now), nullptr);
  EXPECT_EQ(snap->CachedBallIndex(), nullptr);
  // The threshold call pays the build; later calls share it for free.
  const KhopIndex* index = snap->BallIndex(2, limits, nullptr, 1, &built_now);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(built_now);
  EXPECT_EQ(index->depth(), 2u);
  EXPECT_EQ(snap->BallIndex(2, limits, nullptr, 1, &built_now), index);
  EXPECT_FALSE(built_now);
  EXPECT_EQ(snap->CachedBallIndex(), index);
}

TEST(GraphSnapshotTest, BallIndexGrowsDepthAndRetiresShallowIndex) {
  Graph g = gen::BuildFig1Graph();
  SnapshotPtr snap = g.Publish();
  bool built_now = false;
  const KhopIndex* shallow = snap->BallIndex(1, EagerLimits(), nullptr, 1, &built_now);
  ASSERT_NE(shallow, nullptr);
  EXPECT_EQ(shallow->depth(), 1u);
  // A deeper request rebuilds; the shallow index stays alive (retired, not
  // freed) so a reader holding it mid-swap is never left dangling.
  const KhopIndex* deep = snap->BallIndex(3, EagerLimits(), nullptr, 1, &built_now);
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(built_now);
  EXPECT_EQ(deep->depth(), 3u);
  EXPECT_NE(deep, shallow);
  EXPECT_EQ(shallow->depth(), 1u);  // still readable
  // Grow-only: a shallower request is served by the deep index.
  EXPECT_EQ(snap->BallIndex(2, EagerLimits(), nullptr, 1, &built_now), deep);
  EXPECT_FALSE(built_now);
}

TEST(GraphSnapshotTest, FirstLimitsWinTheSharedSlot) {
  Graph g = gen::BuildFig1Graph();
  SnapshotPtr snap = g.Publish();
  bool built_now = false;
  const KhopIndex* index = snap->BallIndex(2, EagerLimits(), nullptr, 1, &built_now);
  ASSERT_NE(index, nullptr);
  // An already-published deep-enough index is served to any caller — it is
  // exact regardless of the caps it was built under.
  BallIndexOptions other = EagerLimits();
  other.max_ball_nodes = 7;
  EXPECT_EQ(snap->BallIndex(2, other, nullptr, 1, &built_now), index);
  EXPECT_FALSE(built_now);
  // But a request that would need a *build* under different limits gets
  // BFS fallback, not a thrashing rebuild of the shared slot.
  EXPECT_EQ(snap->BallIndex(3, other, nullptr, 1, &built_now), nullptr);
  EXPECT_FALSE(built_now);
  EXPECT_EQ(snap->CachedBallIndex(), index);  // slot untouched
  // The slot's own limits may still deepen it.
  const KhopIndex* deep = snap->BallIndex(3, EagerLimits(), nullptr, 1, &built_now);
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(built_now);
  EXPECT_EQ(deep->depth(), 3u);
}

TEST(GraphSnapshotTest, BlownBudgetIsMemoizedPerDepth) {
  // A chain long enough that depth 4 balls exceed a tiny total budget.
  Graph g;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 64; ++i) nodes.push_back(g.AddNode("PM"));
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    ASSERT_TRUE(g.AddEdge(nodes[i], nodes[i + 1]).ok());
  }
  SnapshotPtr snap = g.Publish();
  BallIndexOptions tiny = EagerLimits();
  tiny.max_total_entries = 8;
  bool built_now = false;
  EXPECT_EQ(snap->BallIndex(4, tiny, nullptr, 1, &built_now), nullptr);
  EXPECT_FALSE(built_now);
  // Deeper builds can only be bigger: refused without re-running the build.
  EXPECT_EQ(snap->BallIndex(4, tiny, nullptr, 1, &built_now), nullptr);
  EXPECT_EQ(snap->CachedBallIndex(), nullptr);
}

TEST(GraphSnapshotTest, ConcurrentBuildersPayExactlyOneBuild) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 200;
  cfg.num_teams = 30;
  cfg.seed = 9;
  Graph g = gen::CollaborationNetwork(cfg);
  SnapshotPtr snap = g.Publish();
  std::atomic<size_t> builds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        bool built_now = false;
        const KhopIndex* index =
            snap->BallIndex(2, EagerLimits(), nullptr, 1, &built_now);
        ASSERT_NE(index, nullptr);
        if (built_now) builds.fetch_add(1);
        EXPECT_EQ(index->depth(), 2u);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1u);
  EXPECT_NE(snap->CachedBallIndex(), nullptr);
}

}  // namespace
}  // namespace expfinder
