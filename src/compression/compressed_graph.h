// Query-preserving compressed graphs (paper §II "Graph Compression
// Module"): nodes in the same equivalence class are merged; the query engine
// evaluates (bounded) simulation queries directly on the compressed graph
// and expands classes back to data nodes in linear time.

#ifndef EXPFINDER_COMPRESSION_COMPRESSED_GRAPH_H_
#define EXPFINDER_COMPRESSION_COMPRESSED_GRAPH_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/compression/bisimulation.h"
#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"
#include "src/util/result.h"

namespace expfinder {

/// Equivalence used for merging.
enum class EquivalenceMode {
  /// Forward bisimulation (default): preserves bounded-simulation queries.
  kBisimulation,
  /// Simulation equivalence: coarser, preserves only bound-1 queries;
  /// quadratic computation (small graphs / ablation).
  kSimEquivalence,
};

/// \brief Which node features queries may test. The initial partition keys
/// on the label (when use_label) plus the listed attributes, so any query
/// touching only those is answerable on the compressed graph.
struct CompressionSchema {
  bool use_label = true;
  std::vector<std::string> attrs;
};

/// Builds the initial partition induced by the schema.
Partition SchemaPartition(const Graph& g, const CompressionSchema& schema);

/// \brief The mutable form of a compressed graph: the partition, the
/// members of every class (ascending) and Gc itself, one Gc node per class.
/// Incremental maintenance patches it in place; CompressedGraph::Freeze
/// turns it into the immutable view queries read.
struct ClassGraph {
  Partition partition;
  std::vector<std::vector<NodeId>> members;
  Graph gc;
  /// The source graph as of the last Reset or patch.
  uint64_t source_version = 0;
  size_t source_edges = 0;

  /// Rebuilds members and Gc from `p` over `g`. Gc's edges come from one
  /// pass over all of g's edges, so any partition works (simulation
  /// equivalence included, whose members need not share successors).
  void Reset(const Graph& g, const CompressionSchema& schema, Partition p);

  /// Appends the Gc node of class `cls` (== gc.NumNodes()): label and schema
  /// attributes of its first member (all members agree on schema features
  /// by construction), plus class_size.
  void AddClassNode(const Graph& g, const CompressionSchema& schema, uint32_t cls);

  /// Brings Gc up to date after RefineFrom: one node per fresh class, then
  /// class_size and out-edges of every fresh class and every class in
  /// `visited` (RefineFrom's worklist). The out-edges of a class are its
  /// first member's successor classes — exact because in a stable
  /// bisimulation partition all members of a class have the same successor
  /// classes.
  void Patch(const Graph& g, const CompressionSchema& schema,
             std::vector<uint32_t> visited);

  /// Records `g`'s version and edge count as the source state.
  void Stamp(const Graph& g);
};

/// \brief A compressed graph Gc plus the class mapping needed to decompress
/// query results. Immutable once built: Gc is a frozen GraphSnapshot and the
/// class data one flat, shared array, so copies cost two refcounts and
/// never observe later maintenance.
class CompressedGraph {
 public:
  /// Compresses `g` under `schema` with the chosen equivalence.
  static Result<CompressedGraph> Build(const Graph& g, const CompressionSchema& schema,
                                       EquivalenceMode mode = EquivalenceMode::kBisimulation);

  /// Freezes `classes`: one capture of its Gc plus one flat copy of the
  /// partition and member lists.
  static CompressedGraph Freeze(const ClassGraph& classes, const CompressionSchema& schema,
                                EquivalenceMode mode);

  /// The compressed graph (one node per class; schema attributes copied from
  /// a representative member).
  const Graph& gc() const { return gc_->graph(); }
  /// The frozen snapshot of gc() that compressed-path matchers bind to.
  const SnapshotPtr& gc_snapshot() const { return gc_; }

  EquivalenceMode mode() const { return mode_; }
  const CompressionSchema& schema() const { return schema_; }

  uint32_t NumClasses() const { return classes_->partition.num_blocks; }
  uint32_t ClassOf(NodeId v) const { return classes_->partition.block_of[v]; }
  /// Members of class `cls`, ascending. The span lives as long as this view
  /// or any copy of it.
  std::span<const NodeId> MembersOf(uint32_t cls) const {
    const std::vector<uint32_t>& begin = classes_->member_begin;
    return {classes_->member_nodes.data() + begin[cls], begin[cls + 1] - begin[cls]};
  }
  const Partition& partition() const { return classes_->partition; }

  /// |Gc nodes| / |G nodes| (smaller = better compression).
  double NodeRatio() const;
  /// |Gc edges| / |G edges|.
  double EdgeRatio() const;

  /// True when `q` only tests features in the schema (and, for
  /// simulation-equivalence mode, is a plain simulation pattern) — i.e.
  /// M(Q,G) can be recovered from M(Q,Gc).
  bool IsCompatible(const Pattern& q) const;

  /// Linear-time decompression: expands each matched class to its members.
  MatchRelation Decompress(const MatchRelation& compressed) const;

  /// Version of the source graph at (re)build time.
  uint64_t source_version() const { return source_version_; }

  /// Rebuilds gc/members from `partition` over `g` (the full path; keeps
  /// this graph's schema and mode).
  void RebuildFromPartition(const Graph& g, Partition partition);

  /// An empty placeholder (no classes). Most callers should use Build().
  CompressedGraph();

 private:
  /// Partition plus the member lists laid out flat: class c's members are
  /// member_nodes[member_begin[c], member_begin[c + 1]).
  struct Classes {
    Partition partition;
    std::vector<uint32_t> member_begin;
    std::vector<NodeId> member_nodes;
  };

  SnapshotPtr gc_;
  std::shared_ptr<const Classes> classes_;
  CompressionSchema schema_;
  EquivalenceMode mode_ = EquivalenceMode::kBisimulation;
  uint64_t source_version_ = 0;
  size_t source_edges_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_COMPRESSION_COMPRESSED_GRAPH_H_
