#include "src/graph/graph.h"

#include <algorithm>
#include <atomic>

#include "src/graph/graph_snapshot.h"
#include "src/index/topic_index.h"
#include "src/util/logging.h"

namespace expfinder {

namespace {
const std::vector<NodeId> kEmptyNodes;
}

uint64_t Graph::NextUid() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::shared_ptr<const GraphSnapshot> Graph::Publish() const {
  if (frozen_in_.snapshot != nullptr) return frozen_in_.snapshot->shared_from_this();
  return GraphSnapshot::Capture(*this);
}

NodeId Graph::AddNode(std::string_view label) {
  LabelId lid = label_interner_.Intern(label);
  NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(lid);
  out_.emplace_back();
  in_.emplace_back();
  attrs_.emplace_back();
  if (lid >= label_index_.size()) label_index_.resize(lid + 1);
  label_index_[lid].push_back(id);
  ++version_;
  InvalidateTopicSlot();
  return id;
}

void Graph::InvalidateTopicSlot() {
  // use_count() is exact here: mutation is single-writer, and a reading
  // snapshot holding a reference keeps the count above 1 for as long as it
  // could observe the slot.
  if (topic_slot_ == nullptr || topic_slot_.use_count() > 1 ||
      topic_slot_->Consumed()) {
    topic_slot_ = std::make_shared<TopicIndexSlot>();
  }
}

Status Graph::AddEdge(NodeId src, NodeId dst) {
  if (!IsValidNode(src) || !IsValidNode(dst)) {
    return Status::InvalidArgument("AddEdge: node id out of range");
  }
  if (HasEdge(src, dst)) {
    return Status::AlreadyExists("AddEdge: edge already present");
  }
  AddEdgeUnchecked(src, dst);
  return Status::OK();
}

void Graph::AddEdgeUnchecked(NodeId src, NodeId dst) {
  EF_DCHECK(IsValidNode(src) && IsValidNode(dst));
  out_[src].push_back(dst);
  in_[dst].push_back(src);
  ++num_edges_;
  ++version_;
}

Status Graph::RemoveEdge(NodeId src, NodeId dst) {
  if (!IsValidNode(src) || !IsValidNode(dst)) {
    return Status::InvalidArgument("RemoveEdge: node id out of range");
  }
  auto& outs = out_[src];
  auto it = std::find(outs.begin(), outs.end(), dst);
  if (it == outs.end()) return Status::NotFound("RemoveEdge: edge not present");
  *it = outs.back();
  outs.pop_back();
  auto& ins = in_[dst];
  auto it2 = std::find(ins.begin(), ins.end(), src);
  EF_DCHECK(it2 != ins.end());
  *it2 = ins.back();
  ins.pop_back();
  --num_edges_;
  ++version_;
  return Status::OK();
}

bool Graph::HasEdge(NodeId src, NodeId dst) const {
  if (!IsValidNode(src) || !IsValidNode(dst)) return false;
  const auto& outs = out_[src];
  // Scan the smaller endpoint list.
  const auto& ins = in_[dst];
  if (outs.size() <= ins.size()) {
    return std::find(outs.begin(), outs.end(), dst) != outs.end();
  }
  return std::find(ins.begin(), ins.end(), src) != ins.end();
}

const std::vector<NodeId>& Graph::NodesWithLabel(LabelId id) const {
  if (id >= label_index_.size()) return kEmptyNodes;
  return label_index_[id];
}

void Graph::SetAttr(NodeId v, std::string_view key, AttrValue value) {
  EF_CHECK(IsValidNode(v)) << "SetAttr on invalid node " << v;
  InvalidateTopicSlot();
  AttrKeyId kid = attr_interner_.Intern(key);
  for (auto& [k, val] : attrs_[v]) {
    if (k == kid) {
      val = std::move(value);
      ++version_;
      return;
    }
  }
  attrs_[v].emplace_back(kid, std::move(value));
  ++version_;
}

const AttrValue* Graph::GetAttr(NodeId v, AttrKeyId key) const {
  EF_DCHECK(IsValidNode(v));
  for (const auto& [k, val] : attrs_[v]) {
    if (k == key) return &val;
  }
  return nullptr;
}

const AttrValue* Graph::GetAttr(NodeId v, std::string_view key) const {
  auto kid = attr_interner_.Find(key);
  if (!kid) return nullptr;
  return GetAttr(v, *kid);
}

std::string Graph::DisplayName(NodeId v) const {
  const AttrValue* name = GetAttr(v, "name");
  if (name != nullptr && name->is_string()) return name->AsString();
  return "v" + std::to_string(v);
}

}  // namespace expfinder
