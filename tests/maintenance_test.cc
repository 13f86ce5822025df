#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/compression/maintenance.h"
#include "src/generator/generators.h"
#include "src/incremental/update.h"
#include "src/matching/bounded_simulation.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

CompressionSchema ExperienceSchema() { return {true, {"experience"}}; }

TEST(MaintenanceTest, CreateBuildsStablePartition) {
  Graph g = gen::CollaborationNetwork({.num_people = 150, .num_teams = 30, .seed = 2});
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok()) << mc.status();
  EXPECT_TRUE(IsStablePartition(g, mc->current().partition()));
  EXPECT_EQ(mc->current().source_version(), g.version());
}

TEST(MaintenanceTest, RejectsBadRebuildFactor) {
  Graph g = gen::BuildFig1Graph();
  EXPECT_TRUE(
      MaintainedCompression::Create(&g, ExperienceSchema(), 0.5).status()
          .IsInvalidArgument());
}

TEST(MaintenanceTest, StaysStableAcrossUpdates) {
  Graph g = gen::TwitterLike({.n = 300, .out_per_node = 4, .seed = 4});
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok());
  UpdateBatch stream = GenerateUpdateStream(g, 60, 0.5, 5);
  for (size_t i = 0; i < stream.size(); i += 10) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 10);
    ASSERT_TRUE(ApplyBatch(&g, batch).ok());
    mc->OnGraphUpdated(batch);
    ASSERT_TRUE(IsStablePartition(g, mc->current().partition())) << "step " << i;
    ASSERT_EQ(mc->current().source_version(), g.version());
  }
  EXPECT_EQ(mc->num_maintenances(), 6u);
}

TEST(MaintenanceTest, QueriesPreservedAfterMaintenance) {
  Graph g = gen::ErdosRenyi(80, 320, 6);
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok());
  UpdateBatch stream = GenerateUpdateStream(g, 40, 0.5, 7);
  for (size_t i = 0; i < stream.size(); i += 8) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 8);
    ASSERT_TRUE(ApplyBatch(&g, batch).ok());
    mc->OnGraphUpdated(batch);
    const CompressedGraph& cg = mc->current();
    for (int j = 0; j < 2; ++j) {
      Pattern q = gen::RandomPattern(4, 4, 3, 0.4, i * 13 + j);
      ASSERT_TRUE(cg.IsCompatible(q));
      EXPECT_TRUE(cg.Decompress(ComputeBoundedSimulation(cg.gc(), q)) ==
                  ComputeBoundedSimulation(g, q))
          << "step " << i << " query " << j;
    }
  }
}

TEST(MaintenanceTest, RebuildRestoresCoarseness) {
  Graph g = gen::ErdosRenyi(100, 300, 8);
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok());
  uint32_t initial_classes = mc->current().NumClasses();
  // Heavy churn degrades the maintained partition (splits only).
  UpdateBatch stream = GenerateUpdateStream(g, 150, 0.5, 9);
  ASSERT_TRUE(ApplyBatch(&g, stream).ok());
  mc->OnGraphUpdated(stream);
  uint32_t maintained_classes = mc->current().NumClasses();
  mc->Rebuild();
  EXPECT_LE(mc->current().NumClasses(), maintained_classes);
  EXPECT_GE(mc->num_rebuilds(), 1u);
  (void)initial_classes;
}

TEST(MaintenanceTest, AutoRebuildTriggersOnDrift) {
  Graph g = gen::ErdosRenyi(120, 240, 10);
  // Aggressive factor: any growth triggers rebuild.
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema(), 1.0);
  ASSERT_TRUE(mc.ok());
  UpdateBatch stream = GenerateUpdateStream(g, 100, 0.7, 11);
  ASSERT_TRUE(ApplyBatch(&g, stream).ok());
  mc->OnGraphUpdated(stream);
  // Either the partition stayed put or a rebuild fired; both keep stability.
  EXPECT_TRUE(IsStablePartition(g, mc->current().partition()));
}

// --- Maintained-Gc equivalence sweep ---------------------------------------
//
// The maintained view is patched class by class; the oracle is the full path,
// RebuildFromPartition over the same partition. They must agree on every
// class, member, Gc label, schema attribute and class_size, and on the Gc
// edge set (adjacency order may differ).

std::vector<std::pair<NodeId, NodeId>> EdgeSet(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) edges.emplace_back(v, w);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::string AttrText(const Graph& g, NodeId v, const std::string& attr) {
  const AttrValue* val = g.GetAttr(v, attr);
  return val != nullptr ? val->Serialize() : "<absent>";
}

void ExpectSameAsRebuild(const Graph& g, const CompressedGraph& maintained,
                         const CompressionSchema& schema, const std::string& where) {
  auto fresh = CompressedGraph::Build(g, schema);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  fresh->RebuildFromPartition(g, maintained.partition());
  ASSERT_EQ(maintained.NumClasses(), fresh->NumClasses()) << where;
  ASSERT_EQ(maintained.gc().NumNodes(), fresh->gc().NumNodes()) << where;
  EXPECT_EQ(maintained.source_version(), g.version()) << where;
  const Graph& mgc = maintained.gc();
  const Graph& fgc = fresh->gc();
  std::vector<std::string> attrs = schema.attrs;
  attrs.push_back("class_size");
  for (uint32_t c = 0; c < maintained.NumClasses(); ++c) {
    auto m = maintained.MembersOf(c);
    auto f = fresh->MembersOf(c);
    ASSERT_TRUE(std::equal(m.begin(), m.end(), f.begin(), f.end()))
        << where << " class " << c;
    EXPECT_EQ(mgc.NodeLabelName(c), fgc.NodeLabelName(c)) << where << " class " << c;
    for (const std::string& attr : attrs) {
      EXPECT_EQ(AttrText(mgc, c, attr), AttrText(fgc, c, attr))
          << where << " class " << c << " attr " << attr;
    }
  }
  EXPECT_EQ(mgc.NumEdges(), fgc.NumEdges()) << where;
  EXPECT_EQ(EdgeSet(mgc), EdgeSet(fgc)) << where;
}

struct SweepCase {
  std::string name;
  Graph g;
  double rebuild_factor;
};

TEST(MaintenanceTest, MaintainedGcEqualsRebuildAcrossSeededStreams) {
  std::vector<SweepCase> cases;
  cases.push_back({"collaboration",
                   gen::CollaborationNetwork({.num_people = 300, .num_teams = 50, .seed = 12}),
                   1.5});
  cases.push_back({"erdos_renyi", gen::ErdosRenyi(200, 600, 13), 1.5});
  cases.push_back({"twitter_like", gen::TwitterLike({.n = 250, .out_per_node = 4, .seed = 14}),
                   1.5});
  // Any new block forces the drift rebuild: the full path inside the sweep.
  cases.push_back({"erdos_renyi_rebuild", gen::ErdosRenyi(150, 450, 15), 1.0});

  const CompressionSchema schema = ExperienceSchema();
  for (SweepCase& sc : cases) {
    Graph& g = sc.g;
    auto mc = MaintainedCompression::Create(&g, schema, sc.rebuild_factor);
    ASSERT_TRUE(mc.ok()) << mc.status();
    ExpectSameAsRebuild(g, mc->current(), schema, sc.name + " initial");
    Rng rng(sc.name.size() * 7919);
    size_t grown = 0;
    size_t splits = 0;
    for (size_t step = 0; step < 30; ++step) {
      const std::string where = sc.name + " step " + std::to_string(step);
      if (step % 3 == 1) {
        // A newcomer copies an existing node's label and experience, so it
        // lands in a populated schema block but stays a singleton class.
        NodeId like = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
        NodeId v = g.AddNode(g.NodeLabelName(like));
        if (const AttrValue* exp = g.GetAttr(like, "experience")) {
          g.SetAttr(v, "experience", *exp);
        }
        mc->OnNodeAdded(v);
        ++grown;
      }
      UpdateBatch batch = GenerateUpdateStream(g, 8, 0.5, 100 * step + sc.name.size());
      ASSERT_TRUE(ApplyBatch(&g, batch).ok()) << where;
      splits += mc->OnGraphUpdated(batch);
      const CompressedGraph& cg = mc->current();
      ASSERT_TRUE(IsStablePartition(g, cg.partition())) << where;
      ExpectSameAsRebuild(g, cg, schema, where);
      if (::testing::Test::HasFatalFailure()) return;
      for (uint64_t j = 0; j < 2; ++j) {
        Pattern q = gen::RandomPattern(4, 4, 3, 0.4, 31 * step + j);
        ASSERT_TRUE(cg.IsCompatible(q));
        EXPECT_TRUE(cg.Decompress(ComputeBoundedSimulation(cg.gc(), q)) ==
                    ComputeBoundedSimulation(g, q))
            << where << " query " << j;
      }
    }
    EXPECT_EQ(grown, 10u);
    EXPECT_GT(splits, 0u) << sc.name << ": no batch split a class";
    EXPECT_EQ(mc->num_maintenances(), 30u);
    if (sc.rebuild_factor == 1.0) {
      EXPECT_GT(mc->num_rebuilds(), 0u) << sc.name << ": drift rebuild never ran";
    }
  }
}

TEST(MaintenanceTest, EarlierViewsNeverSeeLaterPatches) {
  Graph g = gen::CollaborationNetwork({.num_people = 200, .num_teams = 40, .seed = 16});
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok());
  const CompressedGraph before = mc->current();
  const std::vector<std::pair<NodeId, NodeId>> edges = EdgeSet(before.gc());
  const Partition partition = before.partition();
  const uint64_t gc_version = before.gc().version();
  UpdateBatch stream = GenerateUpdateStream(g, 80, 0.5, 17);
  ASSERT_TRUE(ApplyBatch(&g, stream).ok());
  ASSERT_GT(mc->OnGraphUpdated(stream), 0u) << "stream split nothing; pick another seed";
  EXPECT_EQ(&mc->current(), &mc->current()) << "current() must freeze once per change";
  EXPECT_NE(mc->current().gc_snapshot(), before.gc_snapshot());
  EXPECT_EQ(before.gc().version(), gc_version);
  EXPECT_EQ(EdgeSet(before.gc()), edges);
  EXPECT_EQ(before.partition().block_of, partition.block_of);
  EXPECT_EQ(before.NumClasses(), partition.num_blocks);
}

}  // namespace
}  // namespace expfinder
