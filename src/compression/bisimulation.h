// Forward-bisimulation partition refinement — the equivalence underlying
// query-preserving compression (paper §II "Graph Compression Module", after
// Fan et al., SIGMOD 2012): nodes that simulate each other's forward
// behaviour are merged; (bounded) simulation queries evaluated on the
// compressed graph decompress to exactly M(Q,G).
//
// Why bisimulation is sufficient for *bounded* simulation (sketch; the
// property tests exercise this): if u ~ v then for every bisimulation class
// C and length d, u has a nonempty path of length d into C iff v does
// (induction on d via the edge condition). Match sets are unions of classes
// (classes refine the schema attributes), so "exists a match of u' within
// distance k" is a class-level property preserved by the quotient.

#ifndef EXPFINDER_COMPRESSION_BISIMULATION_H_
#define EXPFINDER_COMPRESSION_BISIMULATION_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace expfinder {

/// \brief A partition of the graph's nodes into equivalence blocks.
struct Partition {
  std::vector<uint32_t> block_of;  // per node
  uint32_t num_blocks = 0;
};

/// Refines `initial` to the coarsest stable (forward-bisimulation) partition
/// via iterated signature hashing: a node's signature is its own block plus
/// the set of successor blocks; blocks split until no signature
/// distinguishes members. Deterministic block numbering (first-occurrence
/// order). `iterations_out` (optional) reports refinement rounds.
Partition ComputeBisimulation(const Graph& g, const Partition& initial,
                              int* iterations_out = nullptr);

/// Per-block member lists of `p`, each in ascending node order — the layout
/// RefineFrom maintains.
std::vector<std::vector<NodeId>> BlockMembers(const Partition& p);

/// Localized re-stabilization for incremental maintenance: `current` was
/// stable before the graph changed; only nodes in `dirty_nodes` (sources of
/// touched edges) have altered signatures. Re-splits their blocks and
/// propagates backwards along in-edges until stable — cost proportional to
/// the affected region instead of |G| per pass. `members` holds the block
/// member lists of `current` (as BlockMembers builds them) and is kept
/// exact: a split shrinks its block's list in place and appends one list per
/// fresh block. `visited` (optional) receives every block the worklist
/// visited, repeats included; with the fresh blocks these are all the
/// blocks whose successor-block sets may have changed. Returns the number of
/// new blocks created.
size_t RefineFrom(const Graph& g, Partition* current,
                  std::vector<std::vector<NodeId>>* members,
                  const std::vector<NodeId>& dirty_nodes,
                  std::vector<uint32_t>* visited = nullptr);

/// True when `p` is stable on `g` (no signature split possible); the
/// stability invariant checked by tests after maintenance.
bool IsStablePartition(const Graph& g, const Partition& p);

}  // namespace expfinder

#endif  // EXPFINDER_COMPRESSION_BISIMULATION_H_
