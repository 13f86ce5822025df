// DurableGraph: recovery == the serial replay oracle, checkpoint + WAL
// truncation, corrupt-checkpoint fallback, duplicate-replay idempotence,
// and the record codec itself.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph_io.h"
#include "src/incremental/update.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durable_graph.h"
#include "src/storage/fault_env.h"

namespace expfinder {
namespace {

std::string GraphText(const Graph& g) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraphText(g, os).ok());
  return os.str();
}

Graph MakeBase() {
  Graph g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  NodeId c = g.AddNode("C");
  EXPECT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_TRUE(g.AddEdge(b, c).ok());
  g.SetAttr(a, "name", AttrValue("alpha"));
  return g;
}

class DurableGraphFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/durable_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from a previous run
  }

  DurabilityOptions Options() {
    DurabilityOptions o;
    o.dir = dir_;
    o.checkpoint_every_n_batches = 0;  // explicit checkpoints only
    return o;
  }

  std::string dir_;
};

TEST_F(DurableGraphFixture, FreshDirMakesSeedGraphDurable) {
  Graph seed = MakeBase();
  const std::string want = GraphText(seed);
  {
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &seed, &info);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_FALSE(info.from_checkpoint);
    EXPECT_FALSE(info.data_loss);
  }
  // A reboot with an empty graph recovers the seed from its initial
  // checkpoint.
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(GraphText(recovered), want);
}

TEST_F(DurableGraphFixture, RecoveryEqualsSerialReplayOracle) {
  Graph oracle = MakeBase();
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok()) << d.status();

    UpdateBatch b1 = {GraphUpdate::Insert(0, 2), GraphUpdate::Delete(0, 1)};
    ASSERT_TRUE(ApplyBatch(&oracle, b1).ok());
    ASSERT_TRUE((*d)->LogBatch(b1).ok());

    NodeId id = oracle.AddNode("D");
    oracle.SetAttr(id, "years", AttrValue(int64_t{7}));
    ASSERT_TRUE(
        (*d)->LogAddNode(id, "D", {{"years", AttrValue(int64_t{7})}}).ok());

    UpdateBatch b2 = {GraphUpdate::Insert(2, static_cast<NodeId>(id))};
    ASSERT_TRUE(ApplyBatch(&oracle, b2).ok());
    ASSERT_TRUE((*d)->LogBatch(b2).ok());
    EXPECT_EQ((*d)->next_lsn(), 3u);
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(info.replayed_records, 3u);
  EXPECT_FALSE(info.data_loss);
  EXPECT_EQ(GraphText(recovered), GraphText(oracle));
}

TEST_F(DurableGraphFixture, AckedWriteAfterFullCheckpointSurvivesRestarts) {
  // A checkpoint covering the whole log leaves no record on disk. The next
  // boot must still number new records past the checkpoint; records
  // numbered below it would be skipped as stale on the boot after.
  Graph oracle = MakeBase();
  DurabilityOptions o = Options();
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(o, &g, &info);
    ASSERT_TRUE(d.ok());
    for (int i = 0; i < 3; ++i) {
      UpdateBatch b = {i % 2 == 0 ? GraphUpdate::Insert(0, 2)
                                  : GraphUpdate::Delete(0, 2)};
      ASSERT_TRUE(ApplyBatch(&oracle, b).ok());
      ASSERT_TRUE((*d)->LogBatch(b).ok());
    }
    ASSERT_TRUE((*d)->Checkpoint(oracle, (*d)->next_lsn()).ok());
  }
  {
    Graph g;
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(o, &g, &info);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_EQ((*d)->next_lsn(), 3u);
    UpdateBatch b = {GraphUpdate::Delete(0, 2)};
    ASSERT_TRUE(ApplyBatch(&oracle, b).ok());
    ASSERT_TRUE((*d)->LogBatch(b).ok());
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(o, &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_FALSE(info.data_loss) << info.detail;
  EXPECT_EQ(info.replayed_records, 1u);
  EXPECT_EQ(GraphText(recovered), GraphText(oracle));
}

TEST_F(DurableGraphFixture, CheckpointTruncatesCoveredWal) {
  Graph oracle = MakeBase();
  DurabilityOptions o = Options();
  o.segment_bytes = 32;  // force rotation so truncation has segments to drop
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(o, &g, &info);
    ASSERT_TRUE(d.ok());
    for (int i = 0; i < 6; ++i) {
      UpdateBatch b = {i % 2 == 0 ? GraphUpdate::Insert(0, 2)
                                  : GraphUpdate::Delete(0, 2)};
      ASSERT_TRUE(ApplyBatch(&oracle, b).ok());
      ASSERT_TRUE((*d)->LogBatch(b).ok());
    }
    const size_t before = (*d)->wal_segments();
    ASSERT_TRUE((*d)->Checkpoint(oracle, (*d)->next_lsn()).ok());
    EXPECT_LT((*d)->wal_segments(), before);
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(o, &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.replayed_records, 0u);  // everything folded in
  EXPECT_FALSE(info.data_loss);
  EXPECT_EQ(GraphText(recovered), GraphText(oracle));
}

TEST_F(DurableGraphFixture, CheckpointThenCrashBeforeTruncateReplaysOnce) {
  // A checkpoint that lands but whose WAL truncation never happens (crash
  // in the window) leaves records covered by BOTH: replay must skip them.
  Graph oracle = MakeBase();
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok());
    UpdateBatch b1 = {GraphUpdate::Insert(0, 2)};
    ASSERT_TRUE(ApplyBatch(&oracle, b1).ok());
    ASSERT_TRUE((*d)->LogBatch(b1).ok());
    // Checkpoint written directly — bypassing DurableGraph::Checkpoint so
    // the WAL keeps records 0..; exactly the crash-in-the-window state.
    CheckpointOptions co;
    co.dir = dir_;
    ASSERT_TRUE(WriteCheckpoint(co, oracle, (*d)->next_lsn()).ok());
    UpdateBatch b2 = {GraphUpdate::Delete(1, 2)};
    ASSERT_TRUE(ApplyBatch(&oracle, b2).ok());
    ASSERT_TRUE((*d)->LogBatch(b2).ok());
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.skipped_records, 1u);   // batch b1: already in the checkpoint
  EXPECT_EQ(info.replayed_records, 1u);  // batch b2
  EXPECT_FALSE(info.data_loss);
  EXPECT_EQ(GraphText(recovered), GraphText(oracle));
}

TEST_F(DurableGraphFixture, CorruptNewestCheckpointFallsBackToOlder) {
  Graph oracle = MakeBase();
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok());
    UpdateBatch b = {GraphUpdate::Insert(0, 2)};
    ASSERT_TRUE(ApplyBatch(&oracle, b).ok());
    ASSERT_TRUE((*d)->LogBatch(b).ok());
    ASSERT_TRUE((*d)->Checkpoint(oracle, (*d)->next_lsn()).ok());
  }
  // Corrupt the newest checkpoint file in place.
  auto names = FileOps::Real()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  std::string newest;
  for (const auto& n : *names) {
    if (n.rfind("ckpt-", 0) == 0 && n > newest) newest = n;
  }
  ASSERT_FALSE(newest.empty());
  auto f = FileOps::Real()->NewWritableFile(dir_ + "/" + newest, false);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("garbage trailing bytes\n").ok());
  ASSERT_TRUE((*f)->Close().ok());

  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(info.corrupt_checkpoints_skipped, 1u);
  // The older (initial) checkpoint anchors recovery; the WAL record was
  // truncated away by the newer checkpoint, so the graph may legitimately
  // be either prefix — but recovery must not crash and must flag the loss
  // if records are missing.
  EXPECT_TRUE(info.from_checkpoint || info.data_loss);
}

TEST_F(DurableGraphFixture, AllCheckpointsCorruptDegradesWithoutAborting) {
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok());
  }
  auto names = FileOps::Real()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  for (const auto& n : *names) {
    if (n.rfind("ckpt-", 0) != 0) continue;
    auto f = FileOps::Real()->NewWritableFile(dir_ + "/" + n, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("# checksum crc32c:00000000\nnot a checkpoint\n").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();  // degrades, never fails
  EXPECT_TRUE(info.data_loss);
}

// --- Record codec ----------------------------------------------------------

TEST(DurableRecordCodecTest, BatchRoundTrip) {
  UpdateBatch batch = {GraphUpdate::Insert(0, 1), GraphUpdate::Delete(1, 2),
                       GraphUpdate::Insert(2, 0)};
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  Graph oracle = g;
  ASSERT_TRUE(ApplyBatch(&oracle, batch).ok());
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, DurableGraph::EncodeBatch(batch)).ok());
  EXPECT_EQ(GraphText(g), GraphText(oracle));
}

TEST(DurableRecordCodecTest, AddNodeRoundTripWithQuotedLabelAndAttrs) {
  Graph g;
  g.AddNode("seed");
  std::vector<std::pair<std::string, AttrValue>> attrs = {
      {"name", AttrValue("Ada \"the\" Analyst")},
      {"years", AttrValue(int64_t{12})},
      {"score", AttrValue(2.5)},
  };
  std::string rec = DurableGraph::EncodeAddNode(1, "HR dept", attrs);
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, rec).ok());
  ASSERT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NodeLabelName(1), "HR dept");
  const AttrValue* name = g.GetAttr(1, "name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->AsString(), "Ada \"the\" Analyst");
  const AttrValue* years = g.GetAttr(1, "years");
  ASSERT_NE(years, nullptr);
  EXPECT_EQ(years->AsInt(), 12);
}

TEST(DurableRecordCodecTest, ReplayIsIdempotent) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  UpdateBatch batch = {GraphUpdate::Insert(0, 1)};
  std::string rec = DurableGraph::EncodeBatch(batch);
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, rec).ok());
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, rec).ok());  // insert-existing: skip
  EXPECT_EQ(g.NumEdges(), 1u);

  std::string del = DurableGraph::EncodeBatch({GraphUpdate::Delete(0, 1)});
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, del).ok());
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, del).ok());  // delete-missing: skip
  EXPECT_EQ(g.NumEdges(), 0u);

  std::string add = DurableGraph::EncodeAddNode(2, "C", {});
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, add).ok());
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, add).ok());  // id < NumNodes: skip
  EXPECT_EQ(g.NumNodes(), 3u);
}

TEST(DurableRecordCodecTest, InconsistentRecordsAreDataLoss) {
  Graph g;
  g.AddNode("A");
  // Endpoint beyond NumNodes: an addnode record before this one is gone.
  std::string bad_edge = DurableGraph::EncodeBatch({GraphUpdate::Insert(0, 9)});
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, bad_edge).IsDataLoss());
  // NodeId gap: node 5 added to a 1-node graph.
  std::string gap = DurableGraph::EncodeAddNode(5, "X", {});
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, gap).IsDataLoss());
}

TEST(DurableRecordCodecTest, GarbagePayloadIsCorruption) {
  Graph g;
  g.AddNode("A");
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "not a record").IsCorruption());
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "batch nope").IsCorruption());
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "batch 1\n* 0 0").IsCorruption());
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "addnode").IsCorruption());
}

}  // namespace
}  // namespace expfinder
