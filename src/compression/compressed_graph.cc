#include "src/compression/compressed_graph.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/compression/sim_equivalence.h"
#include "src/util/dense_bitset.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace expfinder {

Partition SchemaPartition(const Graph& g, const CompressionSchema& schema) {
  const size_t n = g.NumNodes();
  Partition p;
  p.block_of.assign(n, 0);
  // Key each node by (label?, schema attribute values); intern keys to ids.
  std::unordered_map<std::string, uint32_t> key_ids;
  std::string key;
  for (NodeId v = 0; v < n; ++v) {
    key.clear();
    if (schema.use_label) {
      key += std::to_string(g.label(v));
      key += '|';
    }
    for (const std::string& attr : schema.attrs) {
      const AttrValue* val = g.GetAttr(v, attr);
      key += val ? val->Serialize() : "<absent>";
      key += '|';
    }
    auto [it, inserted] = key_ids.emplace(key, static_cast<uint32_t>(key_ids.size()));
    p.block_of[v] = it->second;
  }
  p.num_blocks = static_cast<uint32_t>(key_ids.size());
  return p;
}

void ClassGraph::Reset(const Graph& g, const CompressionSchema& schema, Partition p) {
  partition = std::move(p);
  members = BlockMembers(partition);
  gc = Graph();
  for (uint32_t cls = 0; cls < partition.num_blocks; ++cls) AddClassNode(g, schema, cls);
  std::unordered_set<uint64_t> seen;
  seen.reserve(g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    uint32_t cv = partition.block_of[v];
    for (NodeId w : g.OutNeighbors(v)) {
      uint64_t key = (static_cast<uint64_t>(cv) << 32) | partition.block_of[w];
      if (seen.insert(key).second) gc.AddEdgeUnchecked(cv, partition.block_of[w]);
    }
  }
  Stamp(g);
}

void ClassGraph::AddClassNode(const Graph& g, const CompressionSchema& schema,
                              uint32_t cls) {
  EF_CHECK(!members[cls].empty()) << "empty equivalence class " << cls;
  NodeId rep = members[cls][0];
  NodeId cnode = gc.AddNode(g.NodeLabelName(rep));
  EF_CHECK(cnode == cls);
  for (const std::string& attr : schema.attrs) {
    const AttrValue* val = g.GetAttr(rep, attr);
    if (val != nullptr) gc.SetAttr(cnode, attr, *val);
  }
  gc.SetAttr(cnode, "class_size", AttrValue(static_cast<int64_t>(members[cls].size())));
}

void ClassGraph::Patch(const Graph& g, const CompressionSchema& schema,
                       std::vector<uint32_t> visited) {
  const uint32_t first_fresh = static_cast<uint32_t>(gc.NumNodes());
  for (uint32_t cls = first_fresh; cls < partition.num_blocks; ++cls) {
    AddClassNode(g, schema, cls);
    visited.push_back(cls);
  }
  std::sort(visited.begin(), visited.end());
  visited.erase(std::unique(visited.begin(), visited.end()), visited.end());
  std::vector<uint32_t> want;
  std::vector<NodeId> have;
  for (uint32_t cls : visited) {
    if (cls < first_fresh) {
      const auto size = static_cast<int64_t>(members[cls].size());
      const AttrValue* old = gc.GetAttr(cls, "class_size");
      if (old == nullptr || old->AsInt() != size) {
        gc.SetAttr(cls, "class_size", AttrValue(size));
      }
    }
    want.clear();
    for (NodeId w : g.OutNeighbors(members[cls][0])) want.push_back(partition.block_of[w]);
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    have = gc.OutNeighbors(cls);
    std::sort(have.begin(), have.end());
    for (NodeId c : have) {
      if (!std::binary_search(want.begin(), want.end(), c)) {
        EF_CHECK(gc.RemoveEdge(cls, c).ok());
      }
    }
    for (uint32_t c : want) {
      if (!std::binary_search(have.begin(), have.end(), c)) gc.AddEdgeUnchecked(cls, c);
    }
  }
  Stamp(g);
}

void ClassGraph::Stamp(const Graph& g) {
  source_version = g.version();
  source_edges = g.NumEdges();
}

CompressedGraph::CompressedGraph() {
  static const SnapshotPtr kEmptyGc = Graph().Publish();
  static const std::shared_ptr<const Classes> kNoClasses =
      std::make_shared<const Classes>(Classes{{}, {0}, {}});
  gc_ = kEmptyGc;
  classes_ = kNoClasses;
}

Result<CompressedGraph> CompressedGraph::Build(const Graph& g,
                                               const CompressionSchema& schema,
                                               EquivalenceMode mode) {
  Partition initial = SchemaPartition(g, schema);
  Partition partition;
  if (mode == EquivalenceMode::kBisimulation) {
    partition = ComputeBisimulation(g, initial);
  } else {
    auto res = ComputeSimEquivalence(g, initial);
    if (!res.ok()) return res.status();
    partition = std::move(res).value();
  }
  ClassGraph classes;
  classes.Reset(g, schema, std::move(partition));
  return Freeze(classes, schema, mode);
}

CompressedGraph CompressedGraph::Freeze(const ClassGraph& classes,
                                        const CompressionSchema& schema,
                                        EquivalenceMode mode) {
  auto flat = std::make_shared<Classes>();
  flat->partition = classes.partition;
  flat->member_begin.reserve(classes.members.size() + 1);
  flat->member_nodes.reserve(classes.partition.block_of.size());
  for (const std::vector<NodeId>& members : classes.members) {
    flat->member_begin.push_back(static_cast<uint32_t>(flat->member_nodes.size()));
    flat->member_nodes.insert(flat->member_nodes.end(), members.begin(), members.end());
  }
  flat->member_begin.push_back(static_cast<uint32_t>(flat->member_nodes.size()));
  CompressedGraph cg;
  cg.gc_ = classes.gc.Publish();
  cg.classes_ = std::move(flat);
  cg.schema_ = schema;
  cg.mode_ = mode;
  cg.source_version_ = classes.source_version;
  cg.source_edges_ = classes.source_edges;
  return cg;
}

void CompressedGraph::RebuildFromPartition(const Graph& g, Partition partition) {
  ClassGraph classes;
  classes.Reset(g, schema_, std::move(partition));
  *this = Freeze(classes, schema_, mode_);
}

double CompressedGraph::NodeRatio() const {
  const size_t source_nodes = partition().block_of.size();
  if (source_nodes == 0) return 1.0;
  return static_cast<double>(gc().NumNodes()) / static_cast<double>(source_nodes);
}

double CompressedGraph::EdgeRatio() const {
  if (source_edges_ == 0) return 1.0;
  return static_cast<double>(gc().NumEdges()) / static_cast<double>(source_edges_);
}

bool CompressedGraph::IsCompatible(const Pattern& q) const {
  if (mode_ == EquivalenceMode::kSimEquivalence && !q.IsSimulationPattern()) {
    return false;
  }
  for (const PatternNode& n : q.nodes()) {
    if (!n.label.empty() && !schema_.use_label) return false;
    for (const Condition& c : n.conditions) {
      if (std::find(schema_.attrs.begin(), schema_.attrs.end(), c.attr()) ==
          schema_.attrs.end()) {
        return false;
      }
    }
  }
  return true;
}

MatchRelation CompressedGraph::Decompress(const MatchRelation& compressed) const {
  // Large expansions: mark members in a flat bit row, then emit in one
  // ascending word scan — replaces concatenate-and-sort, whose O(k log k)
  // dominated decompression for low-selectivity queries. Small expansions
  // (k far below n) keep the sort path: zeroing an n-bit row would cost
  // more than sorting the handful of ids it finds.
  const size_t source_nodes = partition().block_of.size();
  MatchRelation out(compressed.NumPatternNodes());
  DenseBitset marks;  // allocated on first dense row, one row, reused
  for (PatternNodeId u = 0; u < compressed.NumPatternNodes(); ++u) {
    size_t expanded_size = 0;
    for (NodeId cls : compressed.MatchesOf(u)) expanded_size += MembersOf(cls).size();
    std::vector<NodeId> expanded;
    expanded.reserve(expanded_size);
    if (expanded_size * 32 < source_nodes) {
      for (NodeId cls : compressed.MatchesOf(u)) {
        const std::span<const NodeId> members = MembersOf(cls);
        expanded.insert(expanded.end(), members.begin(), members.end());
      }
      std::sort(expanded.begin(), expanded.end());
    } else {
      if (marks.NumCols() != source_nodes) {
        marks = DenseBitset(1, source_nodes);
      } else {
        marks.ClearAll();
      }
      for (NodeId cls : compressed.MatchesOf(u)) {
        for (NodeId v : MembersOf(cls)) marks.Set(0, v);
      }
      marks.ForEachInRow(0,
                         [&](size_t v) { expanded.push_back(static_cast<NodeId>(v)); });
    }
    out.SetMatches(u, std::move(expanded));
  }
  return out;
}

}  // namespace expfinder
