#include "perfbench/src/oracle.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <queue>
#include <unordered_map>

namespace perfbench {

namespace {

using expfinder::CmpOp;
using expfinder::Condition;
using expfinder::Pattern;
using expfinder::PatternNode;

[[noreturn]] void Unsupported(const std::string& what) {
  std::fprintf(stderr, "oracle: unsupported %s\n", what.c_str());
  std::exit(3);
}

/// Breadth-first search over nonempty paths with a reusable visited stamp,
/// so thousands of small searches do not each clear an n-sized array.
class Bfs {
 public:
  explicit Bfs(size_t n) : stamp_(n, 0) {}

  /// Visits every node reachable from `src` by a nonempty path of length
  /// <= depth, calling fn(node, dist) once per node in distance order until
  /// fn returns true. Returns whether it did.
  template <typename Fn>
  bool Run(const OracleGraph& g, NodeId src, uint32_t depth, bool backward, Fn&& fn) {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    frontier_.clear();
    next_.clear();
    auto adj = [&](NodeId v) -> const std::vector<NodeId>& {
      return backward ? g.In(v) : g.Out(v);
    };
    for (NodeId w : adj(src)) {
      if (stamp_[w] == epoch_) continue;
      stamp_[w] = epoch_;
      if (fn(w, 1u)) return true;
      frontier_.push_back(w);
    }
    for (uint32_t d = 2; d <= depth && !frontier_.empty(); ++d) {
      for (NodeId v : frontier_) {
        for (NodeId w : adj(v)) {
          if (stamp_[w] == epoch_) continue;
          stamp_[w] = epoch_;
          if (fn(w, d)) return true;
          next_.push_back(w);
        }
      }
      frontier_.swap(next_);
      next_.clear();
    }
    return false;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> frontier_, next_;
};

bool Contains(const std::vector<NodeId>& sorted, NodeId v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

bool CompareInt(CmpOp op, int64_t lhs, int64_t rhs) {
  switch (op) {
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kNe: return lhs != rhs;
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return lhs <= rhs;
    case CmpOp::kGt: return lhs > rhs;
    case CmpOp::kGe: return lhs >= rhs;
    default: Unsupported("integer comparison operator");
  }
}

Relation EmptyRelation(size_t nq) { return Relation(nq); }

}  // namespace

std::vector<std::string> Tokens(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      cur.push_back(static_cast<char>(std::tolower(u)));
    } else if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

OracleGraph OracleGraph::CopyOf(const expfinder::Graph& g) {
  OracleGraph o;
  const size_t n = g.NumNodes();
  o.out_.resize(n);
  o.in_.resize(n);
  o.label_.resize(n);
  o.ints_.resize(n);
  o.tokens_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    o.out_[v] = g.OutNeighbors(v);
    o.in_[v] = g.InNeighbors(v);
    std::sort(o.out_[v].begin(), o.out_[v].end());
    std::sort(o.in_[v].begin(), o.in_[v].end());
    o.label_[v] = g.NodeLabelName(v);
    std::vector<std::string> toks = Tokens(o.label_[v]);
    for (const auto& [key, value] : g.Attrs(v)) {
      if (value.is_int()) {
        o.ints_[v][g.AttrKeyName(key)] = value.AsInt();
      } else if (value.is_string()) {
        for (std::string& t : Tokens(value.AsString())) toks.push_back(std::move(t));
      }
    }
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    o.tokens_[v] = std::move(toks);
  }
  return o;
}

bool OracleGraph::HasEdge(NodeId a, NodeId b) const { return Contains(out_[a], b); }

bool OracleGraph::Insert(NodeId a, NodeId b) {
  if (a >= NumNodes() || b >= NumNodes() || HasEdge(a, b)) return false;
  out_[a].insert(std::lower_bound(out_[a].begin(), out_[a].end(), b), b);
  in_[b].insert(std::lower_bound(in_[b].begin(), in_[b].end(), a), a);
  return true;
}

bool OracleGraph::Erase(NodeId a, NodeId b) {
  if (a >= NumNodes() || b >= NumNodes() || !HasEdge(a, b)) return false;
  out_[a].erase(std::lower_bound(out_[a].begin(), out_[a].end(), b));
  in_[b].erase(std::lower_bound(in_[b].begin(), in_[b].end(), a));
  return true;
}

std::vector<std::pair<NodeId, NodeId>> OracleGraph::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId a = 0; a < NumNodes(); ++a) {
    for (NodeId b : out_[a]) edges.emplace_back(a, b);
  }
  return edges;
}

bool OracleGraph::Satisfies(const PatternNode& u, NodeId v) const {
  if (!u.label.empty() && label_[v] != u.label) return false;
  for (const Condition& c : u.conditions) {
    if (c.op() == CmpOp::kHasToken) {
      if (!c.is_any_attr() || !c.rhs().is_string()) Unsupported("has_token form");
      std::vector<std::string> want = Tokens(c.rhs().AsString());
      if (want.empty()) return false;
      for (const std::string& t : want) {
        if (!std::binary_search(tokens_[v].begin(), tokens_[v].end(), t)) return false;
      }
      continue;
    }
    if (c.is_any_attr() || !c.rhs().is_int()) Unsupported("condition " + c.ToString());
    auto it = ints_[v].find(c.attr());
    if (it == ints_[v].end()) return false;
    if (!CompareInt(c.op(), it->second, c.rhs().AsInt())) return false;
  }
  return true;
}

Relation Candidates(const OracleGraph& g, const Pattern& q) {
  Relation m(q.NumNodes());
  for (expfinder::PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.Satisfies(q.node(u), v)) m[u].push_back(v);
    }
  }
  for (const auto& list : m) {
    if (list.empty()) return EmptyRelation(q.NumNodes());
  }
  return m;
}

Relation Simulate(const OracleGraph& g, const Pattern& q, bool dual) {
  const size_t nq = q.NumNodes();
  Relation m = Candidates(g, q);
  if (Pairs(m) == 0) return m;
  std::vector<std::vector<char>> member(nq, std::vector<char>(g.NumNodes(), 0));
  for (size_t u = 0; u < nq; ++u) {
    for (NodeId v : m[u]) member[u][v] = 1;
  }
  Bfs bfs(g.NumNodes());
  // Does some match of `target` lie within `bound` nonempty steps of v?
  auto supported = [&](NodeId v, expfinder::Distance bound, size_t target,
                       bool backward) {
    const auto& in_target = member[target];
    return bfs.Run(g, v, bound, backward,
                   [&](NodeId w, uint32_t) { return in_target[w] != 0; });
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t u = 0; u < nq; ++u) {
      std::vector<NodeId> keep;
      keep.reserve(m[u].size());
      for (NodeId v : m[u]) {
        bool ok = true;
        for (uint32_t ei : q.OutEdges(static_cast<expfinder::PatternNodeId>(u))) {
          const auto& e = q.edges()[ei];
          if (!supported(v, e.bound, e.dst, false)) {
            ok = false;
            break;
          }
        }
        if (ok && dual) {
          for (uint32_t ei : q.InEdges(static_cast<expfinder::PatternNodeId>(u))) {
            const auto& e = q.edges()[ei];
            if (!supported(v, e.bound, e.src, true)) {
              ok = false;
              break;
            }
          }
        }
        if (ok) {
          keep.push_back(v);
        } else {
          member[u][v] = 0;
        }
      }
      if (keep.size() != m[u].size()) {
        changed = true;
        m[u] = std::move(keep);
        if (m[u].empty()) return EmptyRelation(nq);
      }
    }
  }
  return m;
}

namespace {

/// The result graph: positions are the sorted union of matched nodes.
struct OracleResultGraph {
  std::vector<NodeId> nodes;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> out, in;  // (pos, w)
};

OracleResultGraph BuildResultGraph(const OracleGraph& g, const Pattern& q,
                                   const Relation& m) {
  OracleResultGraph rg;
  for (const auto& list : m) rg.nodes.insert(rg.nodes.end(), list.begin(), list.end());
  std::sort(rg.nodes.begin(), rg.nodes.end());
  rg.nodes.erase(std::unique(rg.nodes.begin(), rg.nodes.end()), rg.nodes.end());
  auto pos = [&](NodeId v) {
    return static_cast<uint32_t>(
        std::lower_bound(rg.nodes.begin(), rg.nodes.end(), v) - rg.nodes.begin());
  };
  std::unordered_map<uint64_t, uint32_t> weight;  // (src pos, dst pos) -> min dist
  Bfs bfs(g.NumNodes());
  for (const auto& e : q.edges()) {
    const auto& targets = m[e.dst];
    for (NodeId v : m[e.src]) {
      const uint32_t pv = pos(v);
      bfs.Run(g, v, e.bound, false, [&](NodeId w, uint32_t d) {
        if (w != v && Contains(targets, w)) {
          const uint64_t key = (uint64_t{pv} << 32) | pos(w);
          auto [it, fresh] = weight.emplace(key, d);
          if (!fresh) it->second = std::min(it->second, d);
        }
        return false;
      });
    }
  }
  rg.out.resize(rg.nodes.size());
  rg.in.resize(rg.nodes.size());
  for (const auto& [key, w] : weight) {
    const uint32_t a = static_cast<uint32_t>(key >> 32);
    const uint32_t b = static_cast<uint32_t>(key & 0xffffffffu);
    rg.out[a].emplace_back(b, w);
    rg.in[b].emplace_back(a, w);
  }
  return rg;
}

std::vector<double> Dijkstra(const std::vector<std::vector<std::pair<uint32_t, uint32_t>>>& adj,
                             uint32_t src) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(adj.size(), inf);
  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[src] = 0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (auto [w, len] : adj[v]) {
      const double nd = d + len;
      if (nd < dist[w]) {
        dist[w] = nd;
        pq.emplace(nd, w);
      }
    }
  }
  return dist;
}

}  // namespace

std::map<NodeId, double> SocialImpact(const OracleGraph& g, const Pattern& q,
                                      const Relation& m) {
  std::map<NodeId, double> scores;
  const auto output = q.output_node();
  if (!output || Pairs(m) == 0) return scores;
  OracleResultGraph rg = BuildResultGraph(g, q, m);
  for (NodeId v : m[*output]) {
    const uint32_t p = static_cast<uint32_t>(
        std::lower_bound(rg.nodes.begin(), rg.nodes.end(), v) - rg.nodes.begin());
    std::vector<double> fwd = Dijkstra(rg.out, p);
    std::vector<double> bwd = Dijkstra(rg.in, p);
    double sum = 0;
    size_t peers = 0;
    for (uint32_t i = 0; i < rg.nodes.size(); ++i) {
      if (i == p) continue;
      const bool f = fwd[i] != std::numeric_limits<double>::infinity();
      const bool b = bwd[i] != std::numeric_limits<double>::infinity();
      if (f) sum += fwd[i];
      if (b) sum += bwd[i];
      if (f || b) ++peers;
    }
    scores[v] = peers == 0 ? std::numeric_limits<double>::infinity()
                           : sum / static_cast<double>(peers);
  }
  return scores;
}

size_t Pairs(const Relation& m) {
  size_t total = 0;
  for (const auto& list : m) total += list.size();
  return total;
}

}  // namespace perfbench
