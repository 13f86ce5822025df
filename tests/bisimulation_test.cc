#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/compression/bisimulation.h"
#include "src/incremental/update.h"
#include "src/compression/compressed_graph.h"
#include "src/generator/generators.h"

namespace expfinder {
namespace {

Partition UniformPartition(size_t n) {
  Partition p;
  p.block_of.assign(n, 0);
  p.num_blocks = n > 0 ? 1 : 0;
  return p;
}

TEST(BisimulationTest, ChainSplitsByDepth) {
  // 0 -> 1 -> 2 -> 3: from a uniform start, nodes split by distance-to-sink.
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode("N");
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(g.AddEdge(i, i + 1).ok());
  Partition p = ComputeBisimulation(g, UniformPartition(4));
  EXPECT_EQ(p.num_blocks, 4u);
}

TEST(BisimulationTest, ParallelSinksMerge) {
  // Two leaves under one root are bisimilar.
  Graph g;
  g.AddNode("R");
  g.AddNode("L");
  g.AddNode("L");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  Partition init = SchemaPartition(g, {true, {}});
  Partition p = ComputeBisimulation(g, init);
  EXPECT_EQ(p.num_blocks, 2u);
  EXPECT_EQ(p.block_of[1], p.block_of[2]);
  EXPECT_NE(p.block_of[0], p.block_of[1]);
}

TEST(BisimulationTest, CycleOfEquivalentNodes) {
  // A uniform directed cycle is fully bisimilar: one block.
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode("N");
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(g.AddEdge(i, (i + 1) % 5).ok());
  Partition p = ComputeBisimulation(g, UniformPartition(5));
  EXPECT_EQ(p.num_blocks, 1u);
}

TEST(BisimulationTest, LabelsSeparateUpfront) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  Partition init = SchemaPartition(g, {true, {}});
  EXPECT_EQ(init.num_blocks, 2u);
  Partition p = ComputeBisimulation(g, init);
  EXPECT_EQ(p.num_blocks, 2u);
}

TEST(BisimulationTest, StabilityInvariant) {
  Graph g = gen::TwitterLike({.n = 300, .out_per_node = 4, .seed = 5});
  Partition init = SchemaPartition(g, {true, {"experience"}});
  Partition p = ComputeBisimulation(g, init);
  EXPECT_TRUE(IsStablePartition(g, p));
  // The schema partition itself is generally unstable.
  if (g.NumEdges() > 0) {
    EXPECT_GE(p.num_blocks, init.num_blocks);
  }
}

TEST(BisimulationTest, BisimilarNodesHaveMatchingSuccessorBlocks) {
  Graph g = gen::CollaborationNetwork({.num_people = 120, .num_teams = 30, .seed = 9});
  Partition p = ComputeBisimulation(g, SchemaPartition(g, {true, {}}));
  // Transfer property: same block => same set of successor blocks.
  auto successor_blocks = [&](NodeId v) {
    std::set<uint32_t> s;
    for (NodeId w : g.OutNeighbors(v)) s.insert(p.block_of[w]);
    return s;
  };
  std::vector<NodeId> representative(p.num_blocks, kInvalidNode);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    uint32_t b = p.block_of[v];
    if (representative[b] == kInvalidNode) {
      representative[b] = v;
    } else {
      EXPECT_EQ(successor_blocks(v), successor_blocks(representative[b]))
          << "block " << b;
    }
  }
}

TEST(BisimulationTest, LocalizedRefineMatchesFullRefineAsPartition) {
  // After edge updates, RefineFrom(current, touched sources) must yield the
  // same partition (up to renumbering) as running full signature passes.
  for (uint64_t seed : {3ULL, 7ULL, 21ULL}) {
    Graph g = gen::CollaborationNetwork(
        {.num_people = 150, .num_teams = 30, .seed = seed});
    Partition stable = ComputeBisimulation(g, SchemaPartition(g, {true, {}}));
    UpdateBatch batch = GenerateUpdateStream(g, 25, 0.5, seed * 3 + 1);
    ASSERT_TRUE(ApplyBatch(&g, batch).ok());

    Partition localized = stable;
    std::vector<NodeId> dirty;
    for (const GraphUpdate& u : batch) dirty.push_back(u.src);
    std::vector<std::vector<NodeId>> members = BlockMembers(localized);
    RefineFrom(g, &localized, &members, dirty);
    EXPECT_EQ(members, BlockMembers(localized)) << "seed " << seed;
    EXPECT_TRUE(IsStablePartition(g, localized)) << "seed " << seed;

    Partition full = ComputeBisimulation(g, stable);
    // Same partition up to block renumbering: same block iff same block.
    ASSERT_EQ(localized.block_of.size(), full.block_of.size());
    std::map<uint32_t, uint32_t> fwd, bwd;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      auto [it1, ins1] = fwd.emplace(localized.block_of[v], full.block_of[v]);
      EXPECT_EQ(it1->second, full.block_of[v]) << "seed " << seed << " node " << v;
      auto [it2, ins2] = bwd.emplace(full.block_of[v], localized.block_of[v]);
      EXPECT_EQ(it2->second, localized.block_of[v]) << "seed " << seed << " node " << v;
    }
  }
}

TEST(BisimulationTest, RefineFromWithNoDirtyNodesIsNoop) {
  Graph g = gen::BuildFig1Graph();
  Partition stable = ComputeBisimulation(g, SchemaPartition(g, {true, {}}));
  Partition copy = stable;
  std::vector<std::vector<NodeId>> members = BlockMembers(copy);
  std::vector<uint32_t> visited;
  EXPECT_EQ(RefineFrom(g, &copy, &members, {}, &visited), 0u);
  EXPECT_TRUE(visited.empty());
  EXPECT_EQ(copy.block_of, stable.block_of);
}

TEST(BisimulationTest, IterationCountReported) {
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode("N");
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(g.AddEdge(i, i + 1).ok());
  int iters = 0;
  ComputeBisimulation(g, UniformPartition(6), &iters);
  EXPECT_GE(iters, 5);  // chain depth forces deep refinement
}

TEST(BisimulationTest, EmptyGraph) {
  Graph g;
  Partition p = ComputeBisimulation(g, UniformPartition(0));
  EXPECT_EQ(p.num_blocks, 0u);
}

TEST(SchemaPartitionTest, KeysOnLabelAndAttrs) {
  Graph g;
  g.AddNode("A");
  g.AddNode("A");
  g.AddNode("B");
  g.SetAttr(0, "experience", AttrValue(3));
  g.SetAttr(1, "experience", AttrValue(5));
  g.SetAttr(2, "experience", AttrValue(3));
  Partition label_only = SchemaPartition(g, {true, {}});
  EXPECT_EQ(label_only.num_blocks, 2u);
  EXPECT_EQ(label_only.block_of[0], label_only.block_of[1]);
  Partition with_exp = SchemaPartition(g, {true, {"experience"}});
  EXPECT_EQ(with_exp.num_blocks, 3u);
  Partition no_label = SchemaPartition(g, {false, {"experience"}});
  EXPECT_EQ(no_label.num_blocks, 2u);
  EXPECT_EQ(no_label.block_of[0], no_label.block_of[2]);
}

TEST(SchemaPartitionTest, AbsentAttributeIsItsOwnValue) {
  Graph g;
  g.AddNode("A");
  g.AddNode("A");
  g.SetAttr(0, "experience", AttrValue(3));
  Partition p = SchemaPartition(g, {true, {"experience"}});
  EXPECT_EQ(p.num_blocks, 2u);
}

}  // namespace
}  // namespace expfinder
