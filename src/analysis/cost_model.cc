#include "analysis/cost_model.h"

#include <algorithm>
#include <limits>

#include "util/string_util.h"

namespace mcm::analysis {

using dl::DiagCode;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fixed tie-break order: cheaper Step 1 first, integrated before
/// independent within a variant, magic sets last. On regular graphs every
/// counting-family formula collapses to m_L + n_L*m_R, so this order is
/// what resolves the tie — and it matches the measured order (plain
/// counting has no Step 1 at all).
int TieRank(const std::string& method) {
  static const char* kOrder[] = {
      "counting",        "mc/basic/int",     "mc/basic/ind",
      "mc/single/int",   "mc/single/ind",    "mc/multiple/int",
      "mc/multiple/ind", "mc/recurring/int", "mc/recurring/ind",
      "magic_sets",
  };
  for (int i = 0; i < 10; ++i) {
    if (method == kOrder[i]) return i;
  }
  return 10;
}

std::string FormatCost(double c) {
  if (c == kInf) return "inf";
  return StringPrintf("%.0f", c);
}

}  // namespace

const CostEstimate* CostReport::EstimateFor(const std::string& method) const {
  for (const CostEstimate& e : estimates) {
    if (e.method == method) return &e;
  }
  return nullptr;
}

std::string CostReport::ToString() const {
  if (!computed) {
    return "cost model: not computed (" + note + ")\n";
  }
  std::string out = StringPrintf(
      "cost model (n_L=%zu, m_L=%zu, m_R=%zu%s, class=%s", n_l, m_l, m_r,
      m_r_exact ? "" : "~", graph::GraphClassToString(graph_class).c_str());
  if (graph_class != graph::GraphClass::kRegular) {
    out += StringPrintf("; n_s=%zu n_m=%zu n_s^=%zu", params.n_single,
                        params.n_m, params.n_s_hat);
  }
  out += "):\n";
  out += StringPrintf("  %-17s %-8s %12s %12s  %s\n", "method", "verdict",
                      "predicted", "worst-case", "formula");
  for (const CostEstimate& e : estimates) {
    out += StringPrintf("  %-17s %-8s %12s %12s  %s\n", e.method.c_str(),
                        std::string(VerdictToString(e.verdict)).c_str(),
                        FormatCost(e.predicted).c_str(),
                        FormatCost(e.worst_case).c_str(), e.formula.c_str());
  }
  if (!ranking.empty()) {
    out += "ranking (by predicted cost): " + Join(ranking, " < ") + "\n";
  }
  if (!dominance.empty()) {
    out += "dominance (Figure 3): ";
    for (size_t i = 0; i < dominance.size(); ++i) {
      const CostDominance& d = dominance[i];
      if (i > 0) out += ", ";
      out += d.better + (d.average_only ? " <~ " : " <= ") + d.worse +
             (d.holds ? "" : " [VIOLATED]");
    }
    out += "\n";
  }
  return out;
}

CostReport AnalyzeCost(const dl::Program& program,
                       const CountingSafetyReport& safety,
                       const MagicGraphFacts& facts, dl::DiagnosticBag* bag) {
  CostReport report;
  if (safety.form == QueryForm::kNotStronglyLinear ||
      program.queries.size() != 1) {
    report.note = "query is outside the strongly linear class";
    return report;  // silent, like the safety pass
  }
  const dl::Span span = program.queries[0].span();

  auto give_up = [&](std::string why) {
    report.note = std::move(why);
    bag->Add(DiagCode::kCostUnknown, span,
             "cost model: " + report.note +
                 "; method selection falls back to the static order");
    return report;
  };

  if (safety.l_predicate.empty()) {
    return give_up(
        "the L-part is a conjunction; its graph exists only after "
        "materialization");
  }
  if (facts.l == nullptr || facts.l->arity() != 2 || facts.l->empty()) {
    return give_up("no binary facts or stored relation for '" +
                   safety.l_predicate + "'");
  }
  if (!facts.whole_l) {
    return give_up("the magic graph covers part of '" + safety.l_predicate +
                   "' only: the program adds tuples the graph does not hold");
  }
  if (!facts.source_known) {
    return give_up("query constant never occurs in the data: the magic "
                   "graph is the isolated source node and every method is "
                   "O(1)");
  }
  if (!facts.graph.has_value()) return give_up(facts.build_error);

  // With E and R in the build the reachable R-side gives the exact m_R;
  // otherwise |R| is an upper bound on it.
  const graph::QueryGraph& qg = *facts.graph;
  report.n_l = qg.n_l();
  report.m_l = qg.m_l();
  report.m_e = qg.m_e();
  if (facts.full_graph()) {
    report.m_r = qg.m_r();
    report.m_r_exact = true;
  } else if (facts.r != nullptr) {
    report.m_r = facts.r->size();
  } else {
    return give_up("no stored relation for the R part; m_R is unknown");
  }

  report.params = facts.classes;
  report.graph_class = report.params.graph_class;
  report.computed = true;

  const graph::MagicGraphAnalysis& mga = report.params;
  const graph::Digraph& g = qg.magic_graph();
  const std::vector<bool> all(g.NumNodes(), true);  // counting, basic
  int64_t depth = 0;  // deepest BFS level (Step-1 rounds)
  for (int64_t d : mga.min_dist) depth = std::max(depth, d);

  double n_l = static_cast<double>(report.n_l);
  double m_l = static_cast<double>(report.m_l);
  double m_r = static_cast<double>(report.m_r);
  bool regular = report.graph_class == graph::GraphClass::kRegular;
  bool cyclic = report.graph_class == graph::GraphClass::kCyclic;

  // Counting-set ascent: deriving CS over region S touches every arc out
  // of b once per index of b, so it costs sum |I_b| * outdeg(b) — the
  // quantity Propositions 4-7 bound by n_L * m_L (or m_L when regular).
  auto ascent = [&](const std::vector<bool>& in) {
    double sum = 0;
    for (graph::NodeId b = 0; b < g.NumNodes(); ++b) {
      if (!in[b]) continue;
      sum += static_cast<double>(mga.distance_sets[b].size()) *
             static_cast<double>(g.OutDegree(b));
    }
    return sum;
  };
  // Level-wise descent: one pass over the R arcs per distinct index, so
  // (#levels) * m_R — the quantity the formulas bound by n * m_R, tight
  // exactly when the region is chain-shaped (one node per level).
  auto descent = [&](const std::vector<bool>& in) {
    int64_t max_idx = -1;
    for (graph::NodeId b = 0; b < g.NumNodes(); ++b) {
      if (!in[b] || mga.distance_sets[b].empty()) continue;
      max_idx = std::max(max_idx, mga.distance_sets[b].back());
    }
    return static_cast<double>(max_idx + 1) * m_r;
  };
  // Naive recurring Step 1 (the 2K-1 fixpoint of Section 9): on acyclic
  // graphs it converges after ~2 * depth rounds of m_L arc scans; on
  // cyclic graphs indices keep growing around cycles until the n_L bound,
  // giving the n_L * m_L worst case the paper charges it.
  double recurring_step1 =
      cyclic ? n_l * m_l
             : static_cast<double>(2 * depth + 1) * m_l;

  auto add = [&](std::string method, bool finite, double predicted,
                 double worst_case, std::string formula) {
    CostEstimate e;
    e.method = std::move(method);
    e.verdict = safety.VerdictFor(e.method);
    e.finite = finite;
    e.predicted = predicted;
    e.worst_case = worst_case;
    e.formula = std::move(formula);
    report.estimates.push_back(std::move(e));
  };

  // --- counting (Proposition 4 / Table 1) -----------------------------
  if (cyclic) {
    add("counting", false, kInf, kInf, "infinite (cyclic magic graph)");
  } else {
    add("counting", true, ascent(all) + descent(all),
        regular ? m_l + n_l * m_r : n_l * m_l + n_l * m_r,
        regular ? "m_L + n_L*m_R" : "n_L*m_L + n_L*m_R");
  }

  // --- magic sets (Table 1) -------------------------------------------
  // The descent work per magic node depends on answer multiplicities the
  // skeleton cannot see, so predicted == worst case here.
  add("magic_sets", true, m_l * m_r, m_l * m_r, "m_L*m_R");

  // --- basic (Proposition 5 / Table 2): counting when regular, pure
  // magic otherwise; both modes behave identically. ---------------------
  for (const char* mode : {"ind", "int"}) {
    if (regular) {
      add(std::string("mc/basic/") + mode, true,
          m_l + ascent(all) + descent(all), m_l + n_l * m_r,
          "m_L + n_L*m_R");
    } else {
      add(std::string("mc/basic/") + mode, true, m_l + m_l * m_r,
          m_l * m_r, "m_L*m_R");
    }
  }

  // --- single / multiple / recurring (Propositions 6-7, Tables 3-5) ---
  // Shared shape: Step 1 + counting ascent/descent over the region kept in
  // RC + worst-case magic work (m_L - m_X) * m_R for the arcs handed to RM.
  struct PartitionRow {
    const char* variant;
    const std::vector<bool>* region_ind;  ///< descent region, IND mode
    const std::vector<bool>* region_int;  ///< descent region, INT mode
    size_t m_x_ind, m_x_int;              ///< region arcs (magic-term offset)
    size_t n_x_ind, n_x_int;              ///< region nodes (worst-case term)
    double step1;
    const char* formula_ind;
    const char* formula_int;
  };
  const PartitionRow rows[] = {
      {"single", &mga.single_below, &mga.single_below, mga.m_j_hat,
       mga.m_s_hat, mga.n_s_hat, mga.n_s_hat, m_l,
       "m_L + (m_L - m_j^)*m_R + n_s^*m_R",
       "m_L + (m_L - m_s^)*m_R + n_s^*m_R"},
      {"multiple", &mga.closed_single, &mga.single, mga.m_i,
       mga.m_single, mga.n_i, mga.n_single, m_l,
       "m_L + (m_L - m_i)*m_R + n_i*m_R",
       "m_L + (m_L - m_s)*m_R + n_s*m_R"},
      {"recurring", &mga.closed_nonrecurring, &mga.nonrecurring,
       mga.m_m_hat, mga.m_m, mga.n_m_hat, mga.n_m, recurring_step1,
       "n_L*m_L + (m_L - m_m^)*m_R + n_m^*m_R",
       "n_L*m_L + (m_L - m_m)*m_R + n_m*m_R"},
  };
  for (const PartitionRow& row : rows) {
    bool is_recurring = std::string(row.variant) == "recurring";
    double step1_worst = is_recurring && !regular ? n_l * m_l : m_l;
    for (bool ind : {true, false}) {
      const std::vector<bool>& region = ind ? *row.region_ind : *row.region_int;
      double m_x = static_cast<double>(ind ? row.m_x_ind : row.m_x_int);
      double n_x = static_cast<double>(ind ? row.n_x_ind : row.n_x_int);
      double predicted =
          row.step1 + ascent(region) + descent(region) + (m_l - m_x) * m_r;
      double worst_case;
      std::string formula;
      if (regular) {
        // Every region is the whole graph: the formulas collapse to the
        // counting cost (plus Step 1, absorbed by the Theta).
        worst_case = m_l + n_l * m_r;
        formula = "m_L + n_L*m_R";
      } else if (is_recurring && !cyclic) {
        // Acyclic: no recurring node, RM empty, counting keeps everything.
        worst_case = n_l * m_l + n_l * m_r;
        formula = "n_L*m_L + n_L*m_R";
      } else {
        worst_case = step1_worst + (m_l - m_x) * m_r + n_x * m_r;
        formula = ind ? row.formula_ind : row.formula_int;
      }
      add(std::string("mc/") + row.variant + (ind ? "/ind" : "/int"), true,
          predicted, worst_case, std::move(formula));
    }
  }

  // --- ranking ---------------------------------------------------------
  std::vector<const CostEstimate*> safe;
  for (const CostEstimate& e : report.estimates) {
    if (e.finite && e.verdict == Verdict::kSafe) safe.push_back(&e);
  }
  std::sort(safe.begin(), safe.end(),
            [](const CostEstimate* a, const CostEstimate* b) {
              if (a->predicted != b->predicted) {
                return a->predicted < b->predicted;
              }
              return TieRank(a->method) < TieRank(b->method);
            });
  for (const CostEstimate* e : safe) report.ranking.push_back(e->method);

  // --- Figure 3 dominance arcs on the predicted costs ------------------
  struct Arc {
    const char* better;
    const char* worse;
    const char* classes;  ///< subset of "RAC" the arc applies to
    bool average_only;
  };
  static const Arc kArcs[] = {
      {"counting", "magic_sets", "R", false},
      {"counting", "magic_sets", "A", true},
      {"mc/basic/ind", "magic_sets", "RAC", false},
      {"mc/basic/int", "magic_sets", "RAC", false},
      {"mc/single/ind", "mc/basic/ind", "AC", false},
      {"mc/single/int", "mc/single/ind", "AC", false},
      {"mc/multiple/ind", "mc/single/ind", "AC", false},
      {"mc/multiple/int", "mc/single/int", "AC", false},
      {"mc/multiple/int", "mc/multiple/ind", "AC", false},
      {"mc/recurring/int", "mc/recurring/ind", "AC", false},
      {"mc/recurring/ind", "mc/multiple/ind", "AC", true},
      {"mc/recurring/int", "mc/multiple/int", "AC", true},
      {"mc/basic/ind", "counting", "C", false},
  };
  char cls = regular ? 'R' : (cyclic ? 'C' : 'A');
  for (const Arc& arc : kArcs) {
    if (std::string(arc.classes).find(cls) == std::string::npos) continue;
    CostDominance d;
    d.better = arc.better;
    d.worse = arc.worse;
    d.average_only = arc.average_only;
    const CostEstimate* better = report.EstimateFor(arc.better);
    const CostEstimate* worse = report.EstimateFor(arc.worse);
    d.holds = better != nullptr && worse != nullptr &&
              better->predicted <= worse->predicted;
    report.dominance.push_back(std::move(d));
  }

  // --- notes -----------------------------------------------------------
  for (const CostEstimate& e : report.estimates) {
    if (!e.finite) {
      bag->Add(DiagCode::kCostEstimate, span,
               "cost[" + e.method + "]: divergent (cyclic magic graph)");
    } else {
      bag->Add(DiagCode::kCostEstimate, span,
               "cost[" + e.method + "]: predicted " + FormatCost(e.predicted) +
                   ", worst-case " + FormatCost(e.worst_case) +
                   " tuple retrievals (" + e.formula + ")");
    }
  }
  std::string summary = StringPrintf(
      "cost model over '%s': n_L=%zu m_L=%zu m_R=%zu%s, %s",
      safety.l_predicate.c_str(), report.n_l, report.m_l, report.m_r,
      report.m_r_exact ? "" : " (upper bound: |R|)",
      graph::GraphClassToString(report.graph_class).c_str());
  if (!report.ranking.empty()) {
    const CostEstimate* best = report.EstimateFor(report.ranking[0]);
    summary += "; cheapest safe method: " + report.ranking[0] +
               " (predicted " + FormatCost(best->predicted) + ")";
  }
  bag->Add(DiagCode::kCostRanking, span, std::move(summary));

  return report;
}

}  // namespace mcm::analysis
