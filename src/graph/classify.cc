#include "graph/classify.h"

#include <algorithm>
#include <deque>

#include "util/string_util.h"

namespace mcm::graph {

std::string NodeClassToString(NodeClass c) {
  switch (c) {
    case NodeClass::kSingle:
      return "single";
    case NodeClass::kMultiple:
      return "multiple";
    case NodeClass::kRecurring:
      return "recurring";
  }
  return "?";
}

std::string GraphClassToString(GraphClass c) {
  switch (c) {
    case GraphClass::kRegular:
      return "regular";
    case GraphClass::kAcyclicNonRegular:
      return "acyclic";
    case GraphClass::kCyclic:
      return "cyclic";
  }
  return "?";
}

namespace {

/// Fixed-width bitset sized at runtime, used for distance-set DP.
class BitRow {
 public:
  explicit BitRow(size_t bits = 0) : bits_(bits), words_((bits + 63) / 64, 0) {}

  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  /// this |= (other << 1): the "add one arc" operation on distance sets.
  void OrShifted(const BitRow& other) {
    uint64_t carry = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t val = w < other.words_.size() ? other.words_[w] : 0;
      words_[w] |= (val << 1) | carry;
      carry = val >> 63;
    }
  }

  size_t Popcount() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  std::vector<int64_t> ToList() const {
    std::vector<int64_t> out;
    for (size_t i = 0; i < bits_; ++i) {
      if (Test(i)) out.push_back(static_cast<int64_t>(i));
    }
    return out;
  }

 private:
  size_t bits_;
  std::vector<uint64_t> words_;
};

}  // namespace

MagicGraphAnalysis AnalyzeMagicGraph(const Digraph& g, NodeId source) {
  MagicGraphAnalysis a;
  const size_t n = g.NumNodes();
  a.node_class.assign(n, NodeClass::kSingle);
  a.distance_sets.assign(n, {});
  a.min_dist = g.BfsDistances(source);

  // --- Recurring nodes: reachable from a cycle node (Proposition 1c). ---
  std::vector<bool> on_cycle = g.OnCycle();
  std::vector<bool> recurring(n, false);
  {
    std::vector<NodeId> stack;
    for (NodeId v = 0; v < n; ++v) {
      if (on_cycle[v] && a.min_dist[v] != kUnreachable) {
        recurring[v] = true;
        stack.push_back(v);
      }
    }
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : g.OutNeighbors(u)) {
        if (!recurring[v]) {
          recurring[v] = true;
          stack.push_back(v);
        }
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (recurring[v]) a.node_class[v] = NodeClass::kRecurring;
  }

  // --- Exact distance sets for non-recurring nodes. ---
  // Paths from the source to a non-recurring node never visit a recurring
  // node (otherwise the endpoint would be recurring), so the relevant
  // subgraph is the DAG induced by non-recurring nodes and distances are
  // bounded by its node count.
  {
    std::vector<NodeId> non_rec;
    for (NodeId v = 0; v < n; ++v) {
      if (!recurring[v] && a.min_dist[v] != kUnreachable) non_rec.push_back(v);
    }
    size_t max_bits = non_rec.size() + 1;

    // Topological order of the induced DAG via Kahn on filtered arcs.
    std::vector<size_t> indeg(n, 0);
    for (NodeId v : non_rec) {
      for (NodeId u : g.InNeighbors(v)) {
        if (!recurring[u] && a.min_dist[u] != kUnreachable) ++indeg[v];
      }
    }
    std::deque<NodeId> queue;
    for (NodeId v : non_rec) {
      if (indeg[v] == 0) queue.push_back(v);
    }
    std::vector<BitRow> sets(n, BitRow(max_bits));
    if (!recurring[source] && source < n) sets[source].Set(0);
    std::vector<NodeId> topo;
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop_front();
      topo.push_back(u);
      for (NodeId v : g.OutNeighbors(u)) {
        if (recurring[v] || a.min_dist[v] == kUnreachable) continue;
        sets[v].OrShifted(sets[u]);
        if (--indeg[v] == 0) queue.push_back(v);
      }
    }
    for (NodeId v : non_rec) {
      a.distance_sets[v] = sets[v].ToList();
      size_t count = a.distance_sets[v].size();
      a.node_class[v] =
          count <= 1 ? NodeClass::kSingle : NodeClass::kMultiple;
    }
  }

  // --- Graph class. ---
  bool any_multiple = false, any_recurring = false;
  for (NodeId v = 0; v < n; ++v) {
    if (a.min_dist[v] == kUnreachable) continue;
    if (a.node_class[v] == NodeClass::kMultiple) any_multiple = true;
    if (a.node_class[v] == NodeClass::kRecurring) any_recurring = true;
  }
  a.graph_class = any_recurring ? GraphClass::kCyclic
                  : any_multiple ? GraphClass::kAcyclicNonRegular
                                 : GraphClass::kRegular;

  // --- i_x: min over non-single nodes of their smallest index. ---
  a.i_x = MagicGraphAnalysis::kNoLimit;
  for (NodeId v = 0; v < n; ++v) {
    if (a.min_dist[v] == kUnreachable) continue;
    if (a.node_class[v] != NodeClass::kSingle) {
      a.i_x = std::min(a.i_x, a.min_dist[v]);
    }
  }

  // --- Helpers: size of a node subset, arcs among it, arcs entering it. ---
  auto count = [](const std::vector<bool>& in_set) {
    return static_cast<size_t>(std::count(in_set.begin(), in_set.end(), true));
  };
  auto arcs_among = [&](const std::vector<bool>& in_set) {
    size_t m = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (!in_set[u]) continue;
      for (NodeId v : g.OutNeighbors(u)) {
        if (in_set[v]) ++m;
      }
    }
    return m;
  };
  auto arcs_entering = [&](const std::vector<bool>& in_set) {
    size_t m = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!in_set[v]) continue;
      m += g.InDegree(v);
    }
    return m;
  };
  // The nodes of `in_set` with no path to a node of `avoid`.
  auto closed = [&](const std::vector<bool>& in_set,
                    const std::vector<NodeId>& avoid) {
    std::vector<bool> reaches = g.CanReach(avoid);
    std::vector<bool> out(n, false);
    for (NodeId v = 0; v < n; ++v) out[v] = in_set[v] && !reaches[v];
    return out;
  };

  // --- Region membership: Tables 3-5 each split the reachable nodes. ---
  a.single_below.assign(n, false);
  a.single.assign(n, false);
  a.nonrecurring.assign(n, false);
  std::vector<NodeId> at_or_above;  // nodes with dist >= i_x
  std::vector<NodeId> non_single;
  std::vector<NodeId> recurring_nodes;
  for (NodeId v = 0; v < n; ++v) {
    if (a.min_dist[v] == kUnreachable) continue;
    bool single = a.node_class[v] == NodeClass::kSingle;
    a.single_below[v] = single && a.min_dist[v] < a.i_x;
    if (a.min_dist[v] >= a.i_x) at_or_above.push_back(v);
    a.single[v] = single;
    if (!single) non_single.push_back(v);
    a.nonrecurring[v] = a.node_class[v] != NodeClass::kRecurring;
    if (!a.nonrecurring[v]) recurring_nodes.push_back(v);
  }
  a.closed_single = closed(a.single, non_single);
  a.closed_nonrecurring = closed(a.nonrecurring, recurring_nodes);

  // --- Single-method parameters (Table 3). ---
  a.n_s_hat = count(a.single_below);
  a.m_s_hat = arcs_among(a.single_below);
  std::vector<bool> below_closed = closed(a.single_below, at_or_above);
  a.n_j_hat = count(below_closed);
  a.m_j_hat = arcs_entering(below_closed);

  // --- Multiple-method parameters (Table 4). ---
  a.n_single = count(a.single);
  a.m_single = arcs_among(a.single);
  a.n_i = count(a.closed_single);
  a.m_i = arcs_entering(a.closed_single);

  // --- Recurring-method parameters (Table 5). ---
  a.n_m = count(a.nonrecurring);
  a.m_m = arcs_among(a.nonrecurring);
  a.n_m_hat = count(a.closed_nonrecurring);
  a.m_m_hat = arcs_entering(a.closed_nonrecurring);

  return a;
}

std::string MagicGraphAnalysis::ToString() const {
  return StringPrintf(
      "MagicGraphAnalysis{class=%s i_x=%lld | single-method: n_s^=%zu m_s^=%zu "
      "n_j^=%zu m_j^=%zu | multiple-method: n_s=%zu m_s=%zu n_i=%zu m_i=%zu | "
      "recurring-method: n_m=%zu m_m=%zu n_m^=%zu m_m^=%zu}",
      GraphClassToString(graph_class).c_str(),
      static_cast<long long>(i_x == kNoLimit ? -1 : i_x), n_s_hat, m_s_hat,
      n_j_hat, m_j_hat, n_single, m_single, n_i, m_i, n_m, m_m, n_m_hat,
      m_m_hat);
}

}  // namespace mcm::graph
