// Magic-graph node classification and the cost parameters of Tables 3-5.
//
// Proposition 1: a magic-graph node b is
//   * single    iff all paths from the source a to b have the same length,
//   * multiple  iff at least two such paths have different lengths (finitely
//                many distinct lengths),
//   * recurring iff some path from a to b passes through a cycle (infinitely
//                many lengths).
// The magic graph is *regular* when every node is single; the paper's cost
// analysis further distinguishes non-regular acyclic from cyclic graphs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace mcm::graph {

enum class NodeClass : uint8_t { kSingle, kMultiple, kRecurring };

std::string NodeClassToString(NodeClass c);

/// Shape taxonomy of a magic graph, driving the rows of Tables 1-5.
enum class GraphClass : uint8_t {
  kRegular,            ///< all nodes single
  kAcyclicNonRegular,  ///< some multiple node, no recurring node
  kCyclic,             ///< some recurring node
};

std::string GraphClassToString(GraphClass c);

/// \brief Everything the magic counting methods need to know about G_L.
///
/// Produced by AnalyzeMagicGraph(). `distance_sets` is exact for
/// non-recurring nodes (paths to them cannot traverse recurring nodes, so
/// the sets are finite); recurring nodes get an empty set and their min
/// distance only.
struct MagicGraphAnalysis {
  GraphClass graph_class = GraphClass::kRegular;
  std::vector<NodeClass> node_class;        ///< per magic-graph node
  std::vector<int64_t> min_dist;            ///< BFS distance from the source
  std::vector<std::vector<int64_t>> distance_sets;  ///< I_b, sorted; empty
                                                    ///< for recurring nodes

  /// i_x of Section 7: the maximum index such that every node having an
  /// index < i_x is single; equals +infinity (kNoLimit) on regular graphs.
  static constexpr int64_t kNoLimit = INT64_MAX;
  int64_t i_x = kNoLimit;

  // --- Cost parameters (names follow the paper) ----------------------
  // Single method (Table 3): subgraph of single nodes at distance < i_x.
  size_t n_s_hat = 0;  ///< n_ŝ: single nodes with distance < i_x
  size_t m_s_hat = 0;  ///< m_ŝ: arcs of the subgraph induced by them
  size_t n_j_hat = 0;  ///< n_ĵ: those with no path to a node of dist >= i_x
  size_t m_j_hat = 0;  ///< m_ĵ: arcs entering the n_ĵ nodes

  // Multiple method (Table 4): all single nodes.
  size_t n_single = 0;   ///< n_s: number of single nodes
  size_t m_single = 0;   ///< m_s: arcs among single nodes
  size_t n_i = 0;        ///< n_i: single nodes with no path to non-single
  size_t m_i = 0;        ///< m_i: arcs entering the n_i nodes

  // Recurring method (Table 5): single + multiple nodes.
  size_t n_m = 0;      ///< n_m: single or multiple nodes
  size_t m_m = 0;      ///< m_m: arcs among them
  size_t n_m_hat = 0;  ///< n_m̂: those with no path to a recurring node
  size_t m_m_hat = 0;  ///< m_m̂: arcs entering the n_m̂ nodes

  // --- Counting regions, per node (the n_ counts above are their sizes).
  // The cost pass prices each method's counting work over them.
  std::vector<bool> single_below;   ///< n_ŝ: single, distance < i_x
  std::vector<bool> single;         ///< n_s: single
  std::vector<bool> closed_single;  ///< n_i: single, no path to non-single
  std::vector<bool> nonrecurring;   ///< n_m: single or multiple
  std::vector<bool> closed_nonrecurring;  ///< n_m̂: no path to recurring

  bool regular() const { return graph_class == GraphClass::kRegular; }
  bool cyclic() const { return graph_class == GraphClass::kCyclic; }

  std::string ToString() const;
};

/// Analyze magic graph `g` with source node `source` (all nodes are assumed
/// reachable from `source`, which QueryGraph::Build guarantees).
///
/// Complexity: O(m) for classification (BFS + Tarjan) plus
/// O(n^2/64 + m*n/64) bit-set work for the exact distance sets of
/// non-recurring nodes — the "smart" Step-1 implementation sketched at the
/// end of Section 9.
MagicGraphAnalysis AnalyzeMagicGraph(const Digraph& g, NodeId source);

}  // namespace mcm::graph
