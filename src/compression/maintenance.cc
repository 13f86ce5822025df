#include "src/compression/maintenance.h"

#include "src/util/logging.h"

namespace expfinder {

Result<MaintainedCompression> MaintainedCompression::Create(const Graph* g,
                                                            CompressionSchema schema,
                                                            double rebuild_factor) {
  if (rebuild_factor < 1.0) {
    return Status::InvalidArgument("rebuild_factor must be >= 1.0");
  }
  MaintainedCompression mc(g, std::move(schema), rebuild_factor);
  mc.BuildFromSchema();
  return mc;
}

const CompressedGraph& MaintainedCompression::current() {
  if (!frozen_current_) {
    frozen_ = CompressedGraph::Freeze(working_, schema_, EquivalenceMode::kBisimulation);
    frozen_current_ = true;
  }
  return frozen_;
}

size_t MaintainedCompression::OnGraphUpdated(const UpdateBatch& batch) {
  ++num_maintenances_;
  // Note: only edge updates are supported; attribute/label changes would
  // invalidate the schema partition and require Rebuild().
  EF_CHECK(g_->NumNodes() == working_.partition.block_of.size())
      << "node set changed; call Rebuild()";
  // Only the *source* endpoint of a touched edge changes its (forward)
  // signature; everything else is reached by the backward split propagation.
  std::vector<NodeId> dirty;
  dirty.reserve(batch.size());
  for (const GraphUpdate& u : batch) dirty.push_back(u.src);
  std::vector<uint32_t> visited;
  size_t new_blocks =
      RefineFrom(*g_, &working_.partition, &working_.members, dirty, &visited);
  frozen_current_ = false;
  if (working_.partition.num_blocks >
      static_cast<uint32_t>(rebuild_factor_ * blocks_at_last_rebuild_)) {
    Rebuild();
    return new_blocks;
  }
  working_.Patch(*g_, schema_, std::move(visited));
  return new_blocks;
}

void MaintainedCompression::OnNodeAdded(NodeId v) {
  EF_CHECK(g_->IsValidNode(v) && v == working_.partition.block_of.size())
      << "OnNodeAdded must follow Graph::AddNode immediately";
  const uint32_t cls = working_.partition.num_blocks++;
  working_.partition.block_of.push_back(cls);
  working_.members.push_back({v});
  working_.AddClassNode(*g_, schema_, cls);
  working_.Stamp(*g_);
  frozen_current_ = false;
}

void MaintainedCompression::Rebuild() {
  ++num_rebuilds_;
  BuildFromSchema();
}

void MaintainedCompression::BuildFromSchema() {
  working_.Reset(*g_, schema_, ComputeBisimulation(*g_, SchemaPartition(*g_, schema_)));
  blocks_at_last_rebuild_ = working_.partition.num_blocks;
  frozen_current_ = false;
}

}  // namespace expfinder
