// Reference computations the benchmark checks the program against. Nothing
// here calls into the library's matching, ranking, index or compression
// code: the oracle keeps its own adjacency copy, its own tokenizer and
// condition evaluator, and computes every answer from first principles.
//
//   * Matching: the greatest fixpoint of bounded (and bounded dual)
//     simulation, by repeated passes that test every remaining pair with a
//     bounded breadth-first search over nonempty paths.
//   * Ranking: the result graph of a relation and the paper's social-impact
//     score f(uo, v), the average weighted distance to and from v's peers.
//   * Topic search: candidate sets from a scan of every node's label and
//     string attributes.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/query/pattern.h"

namespace perfbench {

using expfinder::NodeId;

/// Per pattern node, the sorted data nodes matching it. Empty lists for
/// every node mean "no match".
using Relation = std::vector<std::vector<NodeId>>;

/// Lower-cased maximal alphanumeric runs of `s`.
std::vector<std::string> Tokens(std::string_view s);

/// The oracle's own copy of an attributed digraph.
class OracleGraph {
 public:
  /// Copies topology, labels and attributes out of `g`.
  static OracleGraph CopyOf(const expfinder::Graph& g);

  size_t NumNodes() const { return out_.size(); }
  bool HasEdge(NodeId a, NodeId b) const;
  /// Edge updates; false when the update does not apply (edge present on
  /// insert, absent on delete).
  bool Insert(NodeId a, NodeId b);
  bool Erase(NodeId a, NodeId b);
  /// All edges as (src, dst), sorted.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  const std::vector<NodeId>& Out(NodeId v) const { return out_[v]; }
  const std::vector<NodeId>& In(NodeId v) const { return in_[v]; }

  /// True iff `v` satisfies the label and every condition of pattern node
  /// `u`. Fails the process on a condition kind the oracle does not model.
  bool Satisfies(const expfinder::PatternNode& u, NodeId v) const;

 private:
  std::vector<std::vector<NodeId>> out_, in_;  // sorted
  std::vector<std::string> label_;
  std::vector<std::map<std::string, int64_t>> ints_;
  std::vector<std::vector<std::string>> tokens_;  // sorted, unique
};

/// Greatest-fixpoint bounded simulation (dual adds the parent constraints).
Relation Simulate(const OracleGraph& g, const expfinder::Pattern& q, bool dual);

/// Per pattern node, the nodes satisfying its label and conditions (no
/// structure). For one-node patterns this is the whole relation.
Relation Candidates(const OracleGraph& g, const expfinder::Pattern& q);

/// Social-impact scores of every output-node match: result graph of `m`,
/// then forward and backward shortest distances from each match. Keyed by
/// data node; +infinity when the match has no peer.
std::map<NodeId, double> SocialImpact(const OracleGraph& g,
                                      const expfinder::Pattern& q, const Relation& m);

size_t Pairs(const Relation& m);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
