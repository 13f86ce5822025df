// The attributed, directed data-graph type at the heart of ExpFinder.
//
// A Graph models a social / collaboration network: every node carries a
// label (its "field", e.g. system architect) plus typed attributes
// (name, specialty, years of experience, ...). Edges are unlabelled and
// unweighted; an edge (u, v) means "v collaborated in a project with/under
// u" and paths model indirect collaboration (paper §I).
//
// The structure is fully dynamic: edges can be inserted and removed at any
// time (the incremental module depends on this), and a monotonically
// increasing version() supports cache invalidation.

#ifndef EXPFINDER_GRAPH_GRAPH_H_
#define EXPFINDER_GRAPH_GRAPH_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/graph/attribute.h"
#include "src/graph/types.h"
#include "src/util/status.h"

namespace expfinder {

class GraphSnapshot;
class TopicIndexSlot;

/// \brief Attributed directed graph with dynamic edge updates.
class Graph {
 public:
  Graph() = default;

  // --- Construction -------------------------------------------------------

  /// Adds a node with the given label; returns its id (dense, sequential).
  NodeId AddNode(std::string_view label);

  /// Adds a directed edge. Fails with InvalidArgument when an endpoint is
  /// out of range, AlreadyExists when the edge is already present.
  Status AddEdge(NodeId src, NodeId dst);

  /// Adds an edge without the duplicate check (for bulk generators that
  /// guarantee uniqueness themselves). Endpoints must be valid.
  void AddEdgeUnchecked(NodeId src, NodeId dst);

  /// Removes a directed edge. Fails with NotFound when absent.
  Status RemoveEdge(NodeId src, NodeId dst);

  bool HasEdge(NodeId src, NodeId dst) const;

  // --- Topology -----------------------------------------------------------

  size_t NumNodes() const { return labels_.size(); }
  size_t NumEdges() const { return num_edges_; }
  bool IsValidNode(NodeId v) const { return v < labels_.size(); }

  const std::vector<NodeId>& OutNeighbors(NodeId v) const { return out_[v]; }
  const std::vector<NodeId>& InNeighbors(NodeId v) const { return in_[v]; }
  size_t OutDegree(NodeId v) const { return out_[v].size(); }
  size_t InDegree(NodeId v) const { return in_[v].size(); }

  // --- Labels -------------------------------------------------------------

  LabelId label(NodeId v) const { return labels_[v]; }
  const std::string& LabelName(LabelId id) const { return label_interner_.NameOf(id); }
  const std::string& NodeLabelName(NodeId v) const { return LabelName(labels_[v]); }
  /// Id of `name` if any node uses it.
  std::optional<LabelId> FindLabel(std::string_view name) const {
    return label_interner_.Find(name);
  }
  size_t NumLabels() const { return label_interner_.size(); }
  /// All nodes with the given label (the candidate index used by planners).
  /// Invariant: ascending node ids — AddNode appends monotonically
  /// increasing ids and entries are never reordered. Candidate
  /// initialization relies on this to skip re-sorting.
  const std::vector<NodeId>& NodesWithLabel(LabelId id) const;

  // --- Attributes ---------------------------------------------------------

  /// Sets (or overwrites) attribute `key` on node `v`.
  void SetAttr(NodeId v, std::string_view key, AttrValue value);

  /// Attribute by interned key id; nullptr when the node lacks it.
  const AttrValue* GetAttr(NodeId v, AttrKeyId key) const;
  /// Attribute by name; nullptr when unknown key or the node lacks it.
  const AttrValue* GetAttr(NodeId v, std::string_view key) const;

  std::optional<AttrKeyId> FindAttrKey(std::string_view key) const {
    return attr_interner_.Find(key);
  }
  AttrKeyId InternAttrKey(std::string_view key) { return attr_interner_.Intern(key); }
  const std::string& AttrKeyName(AttrKeyId id) const { return attr_interner_.NameOf(id); }
  size_t NumAttrKeys() const { return attr_interner_.size(); }

  /// All (key, value) pairs on `v`, in insertion order.
  const std::vector<std::pair<AttrKeyId, AttrValue>>& Attrs(NodeId v) const {
    return attrs_[v];
  }

  /// Convenience: node "name" attribute or "v<id>" placeholder.
  std::string DisplayName(NodeId v) const;

  // --- Versioning ---------------------------------------------------------

  /// Bumped on every mutation (node/edge/attr change); used by caches.
  uint64_t version() const { return version_; }

  /// Recovery/replication only: restores the version counter of a graph
  /// rebuilt from a serialized form (the text format does not persist the
  /// counter — a parsed graph counts its own construction mutations).
  /// Checkpoint recovery calls this so version numbering stays continuous
  /// across restarts, and replicas bootstrapped from a checkpoint agree
  /// with the primary on what every version number means. Later mutations
  /// bump from the restored value. Never call this on a graph that has
  /// published snapshots or live caches keyed on its counter.
  void RestoreVersion(uint64_t version) { version_ = version; }

  /// Publishes the current state as an immutable GraphSnapshot (see
  /// graph_snapshot.h): a refcounted handle bundling a frozen copy of this
  /// graph, its CSR, and a lazily attached ball index. The snapshot shares
  /// nothing with this graph — mutating on after Publish never disturbs
  /// readers holding the handle. Publishing the frozen copy inside a
  /// snapshot (GraphSnapshot::graph()) returns that snapshot: it can never
  /// change, so a second capture would only duplicate it.
  std::shared_ptr<const GraphSnapshot> Publish() const;

  /// Process-unique construction identity. Every default-constructed Graph
  /// draws a fresh uid; copies/moves carry their source's uid. Snapshot
  /// caches key on (address, uid, version): the version counter alone is
  /// ambiguous for a Graph destroyed and re-constructed at the same address
  /// (e.g. the compressed graph rebuilt in place), because the counter
  /// restarts and can land on the same value — the fresh uid disambiguates.
  uint64_t uid() const { return uid_; }

  /// The lazily built topic inverted index shared by every graph with this
  /// graph's *content* (labels + attributes; see index/topic_index.h).
  /// Copies — including the frozen copies inside snapshots — share the slot,
  /// so an index built against one published snapshot serves every snapshot
  /// published across pure edge churn. Content mutations (AddNode, SetAttr)
  /// swap in a fresh slot, which also covers copies that diverge after the
  /// share: whoever mutates stops sharing. nullptr until the first content
  /// mutation (an empty graph has nothing to index).
  const std::shared_ptr<TopicIndexSlot>& topic_slot() const { return topic_slot_; }

 private:
  static uint64_t NextUid();

  /// Content mutated: ensure earlier copies (snapshots) stop sharing the
  /// topic slot. A slot nobody else holds and no query has ever touched
  /// carries no derived state, so bulk loads keep one fresh slot instead of
  /// churning an allocation per AddNode/SetAttr.
  void InvalidateTopicSlot();

  StringInterner label_interner_;
  StringInterner attr_interner_;
  std::vector<LabelId> labels_;                      // per node
  std::vector<std::vector<NodeId>> out_;             // adjacency
  std::vector<std::vector<NodeId>> in_;              // reverse adjacency
  std::vector<std::vector<std::pair<AttrKeyId, AttrValue>>> attrs_;  // per node
  std::vector<std::vector<NodeId>> label_index_;     // label id -> nodes
  std::shared_ptr<TopicIndexSlot> topic_slot_;       // see topic_slot()
  /// The snapshot this graph is the frozen copy of, else null. Copies and
  /// moves start out null: only GraphSnapshot sets it, on its own copy.
  friend class GraphSnapshot;
  struct FrozenIn {
    const GraphSnapshot* snapshot = nullptr;
    FrozenIn() = default;
    FrozenIn(const FrozenIn&) {}
    FrozenIn& operator=(const FrozenIn&) {
      snapshot = nullptr;
      return *this;
    }
  } frozen_in_;
  size_t num_edges_ = 0;
  uint64_t version_ = 0;
  uint64_t uid_ = NextUid();
};

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_GRAPH_H_
