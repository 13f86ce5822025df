#include "src/compression/bisimulation.h"

#include <algorithm>
#include <unordered_map>

#include "src/util/logging.h"

namespace expfinder {

namespace {

/// One signature-split pass: groups nodes by (own block, sorted successor
/// blocks) and renumbers groups in first-occurrence order.
bool SplitBySignature(const Graph& g, Partition* p) {
  const size_t n = g.NumNodes();
  // Hash signatures to provisional group ids.
  struct VecHash {
    size_t operator()(const std::vector<uint32_t>& v) const {
      size_t h = 0xcbf29ce484222325ULL;
      for (uint32_t x : v) {
        h ^= x;
        h *= 0x100000001b3ULL;
      }
      return h;
    }
  };
  std::unordered_map<std::vector<uint32_t>, uint32_t, VecHash> groups;
  groups.reserve(p->num_blocks * 2);
  std::vector<uint32_t> next(n);
  std::vector<uint32_t> sig;
  for (NodeId v = 0; v < n; ++v) {
    sig.clear();
    sig.push_back(p->block_of[v]);
    size_t body = sig.size();
    for (NodeId w : g.OutNeighbors(v)) sig.push_back(p->block_of[w]);
    std::sort(sig.begin() + body, sig.end());
    sig.erase(std::unique(sig.begin() + body, sig.end()), sig.end());
    auto [it, inserted] = groups.emplace(sig, static_cast<uint32_t>(groups.size()));
    next[v] = it->second;
  }
  bool changed = groups.size() != p->num_blocks;
  p->block_of = std::move(next);
  p->num_blocks = static_cast<uint32_t>(groups.size());
  return changed;
}

}  // namespace

Partition ComputeBisimulation(const Graph& g, const Partition& initial,
                              int* iterations_out) {
  EF_CHECK(initial.block_of.size() == g.NumNodes())
      << "initial partition size mismatch";
  Partition p = initial;
  int iters = 0;
  while (SplitBySignature(g, &p)) {
    ++iters;
    EF_CHECK(iters <= static_cast<int>(g.NumNodes()) + 1)
        << "bisimulation refinement failed to converge";
  }
  ++iters;  // the final (stable) pass
  if (iterations_out != nullptr) *iterations_out = iters;
  return p;
}

std::vector<std::vector<NodeId>> BlockMembers(const Partition& p) {
  std::vector<std::vector<NodeId>> members(p.num_blocks);
  for (NodeId v = 0; v < p.block_of.size(); ++v) members[p.block_of[v]].push_back(v);
  return members;
}

size_t RefineFrom(const Graph& g, Partition* p,
                  std::vector<std::vector<NodeId>>* members,
                  const std::vector<NodeId>& dirty_nodes,
                  std::vector<uint32_t>* visited) {
  EF_CHECK(p->block_of.size() == g.NumNodes());
  EF_CHECK(members->size() == p->num_blocks);

  std::vector<char> queued(p->num_blocks, 0);
  std::vector<uint32_t> queue;
  auto enqueue = [&](uint32_t block) {
    if (block >= queued.size()) queued.resize(block + 1, 0);
    if (!queued[block]) {
      queued[block] = 1;
      queue.push_back(block);
    }
  };
  for (NodeId v : dirty_nodes) enqueue(p->block_of[v]);

  size_t new_blocks = 0;
  std::vector<uint32_t> sig;
  struct VecHash {
    size_t operator()(const std::vector<uint32_t>& v) const {
      size_t h = 0xcbf29ce484222325ULL;
      for (uint32_t x : v) {
        h ^= x;
        h *= 0x100000001b3ULL;
      }
      return h;
    }
  };
  size_t head = 0;
  while (head < queue.size()) {
    uint32_t block = queue[head++];
    queued[block] = 0;
    if ((*members)[block].size() <= 1) continue;
    // Group members by successor-block signature (own block is shared, so
    // it is omitted). Group order follows member id order: deterministic.
    std::unordered_map<std::vector<uint32_t>, uint32_t, VecHash> group_of;
    std::vector<std::vector<NodeId>> groups;
    for (NodeId v : (*members)[block]) {
      sig.clear();
      for (NodeId w : g.OutNeighbors(v)) sig.push_back(p->block_of[w]);
      std::sort(sig.begin(), sig.end());
      sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
      auto [it, inserted] = group_of.emplace(sig, static_cast<uint32_t>(groups.size()));
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(v);
    }
    if (groups.size() == 1) continue;
    // First group keeps the block id; the rest get fresh ids. Predecessors
    // of every *moved* node see a changed signature and must be re-checked.
    (*members)[block] = std::move(groups[0]);
    for (size_t gi = 1; gi < groups.size(); ++gi) {
      uint32_t fresh = p->num_blocks++;
      ++new_blocks;
      for (NodeId v : groups[gi]) {
        p->block_of[v] = fresh;
        for (NodeId w : g.InNeighbors(v)) enqueue(p->block_of[w]);
      }
      members->push_back(std::move(groups[gi]));
    }
    // The shrunk block's own members kept their signatures, but their
    // predecessors may now distinguish them from the moved ones.
    enqueue(block);
  }
  if (visited != nullptr) *visited = std::move(queue);
  return new_blocks;
}

bool IsStablePartition(const Graph& g, const Partition& p) {
  Partition copy = p;
  return !SplitBySignature(g, &copy);
}

}  // namespace expfinder
