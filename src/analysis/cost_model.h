// Pass 5: abstract cost interpretation (Propositions 4-7, Tables 1-5).
//
// Derives the paper's cost parameters — n_L, m_L, m_R, the node/arc counts
// of the single/multiple/recurring partitions, cyclicity and regularity —
// from the query graph the safety pass built (MagicGraphFacts), and
// evaluates, for every strategy the repo implements (plain counting, magic
// sets, and the eight magic counting methods B/S/M/R x IND/INT), two numbers
// per method:
//
//   * `worst_case`: the Theta-formula of Propositions 4-7 exactly as the
//     paper states it (and as bench_table1..5 check it empirically), e.g.
//     m_L + (m_L - m_s)*m_R + n_s*m_R for multiple/integrated;
//   * `predicted`: an instance-tightened reading of the same structure
//     where the worst-case factors are replaced by exact skeleton
//     quantities — the counting-set ascent costs sum |I_b| * outdeg(b)
//     over the counting region (instead of the n_L * m_L bound) and the
//     level-wise descent costs (#levels) * m_R (instead of n * m_R, which
//     is tight only for chain-shaped regions). The magic-side terms
//     (m_L - m_X) * m_R stay worst-case: magic-set descent work depends on
//     answer multiplicities the skeleton cannot see.
//
// `predicted` drives the planner's cost-ranked method selection;
// `worst_case` is what the golden tests pin against the paper. The report
// also instantiates the Figure 3 dominance partial order on the predicted
// costs and emits N6xx notes (one N601 per method, one N602 ranking
// summary, N603 when the parameters are not statically derivable).
#pragma once

#include <string>
#include <vector>

#include "analysis/safety.h"
#include "datalog/ast.h"
#include "datalog/diagnostic.h"
#include "graph/classify.h"

namespace mcm::analysis {

/// One row of the cost table.
struct CostEstimate {
  std::string method;  ///< "counting", "magic_sets", "mc/basic/ind", ...
  Verdict verdict = Verdict::kUnknown;  ///< copied from the safety table
  bool finite = true;      ///< false: the method diverges on this instance
  double predicted = 0.0;  ///< instance-tightened tuple-retrieval estimate
  double worst_case = 0.0; ///< the paper's Theta formula, instantiated
  std::string formula;     ///< the worst-case formula, human readable
};

/// One arc of the Figure 3 partial order, instantiated on this instance.
struct CostDominance {
  std::string better;
  std::string worse;
  bool average_only = false;  ///< dotted arc: dominance on the average only
  bool holds = false;  ///< predicted(better) <= predicted(worse) held here
};

/// \brief The cost table plus everything needed to explain it.
struct CostReport {
  /// True when the parameters were derived and the estimates evaluated.
  bool computed = false;
  std::string note;  ///< why not, when !computed

  // --- instance parameters (the paper's names) ------------------------
  size_t n_l = 0;
  size_t m_l = 0;
  size_t m_r = 0;
  size_t m_e = 0;
  /// m_r counts only R-arcs reachable in the query graph when E and R were
  /// available as stored binary relations; otherwise it falls back to |R|
  /// (an upper bound) and this is false.
  bool m_r_exact = false;
  graph::GraphClass graph_class = graph::GraphClass::kRegular;
  graph::MagicGraphAnalysis params;  ///< partitions + Table 3-5 parameters

  /// All ten strategies in table order (counting, magic_sets, mc/...).
  std::vector<CostEstimate> estimates;
  /// Figure 3 arcs whose graph-class condition matches this instance.
  std::vector<CostDominance> dominance;
  /// Safe, finite methods ordered by predicted cost, cheapest first. Ties
  /// break toward the method with the cheaper Step 1 (counting first, then
  /// basic, then integrated before independent within a variant).
  std::vector<std::string> ranking;

  /// Row for a named method; nullptr if the table was not computed.
  const CostEstimate* EstimateFor(const std::string& method) const;

  /// Render the cost table (aligned columns) plus the ranking line.
  std::string ToString() const;
};

/// Evaluate the cost model for the query analyzed by `safety` over the
/// magic graph that pass built into `facts` (the pass is a no-op returning
/// computed == false when the query is outside the strongly linear class).
CostReport AnalyzeCost(const dl::Program& program,
                       const CountingSafetyReport& safety,
                       const MagicGraphFacts& facts, dl::DiagnosticBag* bag);

}  // namespace mcm::analysis
