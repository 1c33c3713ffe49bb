#include "analysis/safety.h"

#include <algorithm>

namespace mcm::analysis {

using dl::DiagCode;

std::string_view VerdictToString(Verdict v) {
  switch (v) {
    case Verdict::kSafe: return "safe";
    case Verdict::kUnsafe: return "UNSAFE";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

std::string_view QueryFormToString(QueryForm f) {
  switch (f) {
    case QueryForm::kNotStronglyLinear: return "not strongly linear";
    case QueryForm::kCanonical: return "canonical strongly linear";
    case QueryForm::kComposed: return "composed strongly linear";
    case QueryForm::kReverseBound: return "reverse-bound strongly linear";
  }
  return "?";
}

std::vector<std::string> CountingSafetyReport::UnsafeMethods() const {
  std::vector<std::string> out;
  for (const MethodVerdict& v : verdicts) {
    if (v.verdict == Verdict::kUnsafe) out.push_back(v.method);
  }
  return out;
}

Verdict CountingSafetyReport::VerdictFor(const std::string& method) const {
  for (const MethodVerdict& v : verdicts) {
    if (v.method == method) return v.verdict;
  }
  return Verdict::kUnknown;
}

std::string CountingSafetyReport::ToString() const {
  std::string out = "counting-safety verdicts (" +
                    std::string(QueryFormToString(form));
  if (analyzed) {
    out += "; magic graph over '" + l_predicate +
           "': " + graph::GraphClassToString(graph_class) + ", " +
           std::to_string(magic_nodes) + " node(s) / " +
           std::to_string(magic_arcs) + " arc(s), " +
           std::to_string(recurring_nodes) + " recurring";
  } else {
    out += "; magic graph not analyzed";
  }
  out += "):\n";
  size_t width = 0;
  for (const MethodVerdict& v : verdicts) {
    width = std::max(width, v.method.size());
  }
  for (const MethodVerdict& v : verdicts) {
    out += "  " + v.method + std::string(width - v.method.size() + 2, ' ');
    std::string verdict(VerdictToString(v.verdict));
    out += verdict + std::string(verdict.size() < 8 ? 8 - verdict.size() : 1,
                                 ' ');
    out += v.reason + "\n";
  }
  return out;
}

namespace {

/// The recursive rules of the goal predicate (for warning spans).
dl::Span RecursiveRuleSpan(const dl::Program& program,
                           const std::string& goal_pred) {
  for (const dl::Rule& r : program.rules) {
    if (r.head.predicate != goal_pred) continue;
    for (const dl::Literal& l : r.body) {
      if (l.kind == dl::Literal::Kind::kAtom &&
          l.atom.predicate == goal_pred) {
        return r.span();
      }
    }
  }
  return dl::Span{};
}

/// Resolve a ground term against a symbol table without interning; returns
/// false when the symbol is unknown to `symbols`.
bool ResolveGroundTerm(const dl::Term& t, const SymbolTable& symbols,
                       Value* out) {
  if (t.kind == dl::Term::Kind::kInt) {
    *out = t.value;
    return true;
  }
  if (t.kind == dl::Term::Kind::kSymbol) {
    Value v = symbols.Find(t.name);
    if (v < 0) return false;
    *out = v;
    return true;
  }
  return false;
}

/// Materialize the in-program ground facts for `pred` into `scratch`.
void MaterializeGroundFacts(const dl::Program& program, const std::string& pred,
                            Database* scratch) {
  for (const dl::Rule& r : program.rules) {
    if (!r.IsFact() || r.head.predicate != pred) continue;
    if (r.head.arity() > kMaxTupleArity) continue;
    Relation* rel = scratch->GetOrCreateRelation(pred, r.head.arity());
    if (rel->arity() != r.head.arity()) continue;
    Tuple t(r.head.arity());
    bool ground = true;
    for (uint32_t i = 0; i < r.head.arity(); ++i) {
      const dl::Term& arg = r.head.args[i];
      if (arg.kind == dl::Term::Kind::kInt) {
        t[i] = arg.value;
      } else if (arg.kind == dl::Term::Kind::kSymbol) {
        t[i] = scratch->symbols().Intern(arg.name);
      } else {
        ground = false;
        break;
      }
    }
    if (ground) rel->Insert(t);
  }
}

/// `name` in `source` when it is binary and non-empty, else null.
const Relation* FindBinary(const Database& source, const std::string& name) {
  if (name.empty()) return nullptr;
  const Relation* rel = source.Find(name);
  return rel != nullptr && rel->arity() == 2 && !rel->empty() ? rel : nullptr;
}

/// Resolve the statistics source and the query constant, then build G_Q
/// and classify G_L: the one magic-graph analysis of a request.
void BuildMagicGraph(const dl::Program& program,
                     const CountingSafetyReport& report,
                     const dl::Term& constant, const Database* db,
                     MagicGraphFacts* facts) {
  bool stored_l = db != nullptr && db->Find(report.l_predicate) != nullptr;
  facts->whole_l = std::none_of(
      program.rules.begin(), program.rules.end(), [&](const dl::Rule& r) {
        return r.head.predicate == report.l_predicate &&
               (stored_l || !r.IsFact());
      });
  const Database* source_db = db;
  if (!stored_l) {
    for (const std::string* pred :
         {&report.l_predicate, &report.e_predicate, &report.r_predicate}) {
      if (!pred->empty()) {
        MaterializeGroundFacts(program, *pred, &facts->scratch);
      }
    }
    source_db = &facts->scratch;
  }
  facts->l = source_db->Find(report.l_predicate);
  if (source_db == &facts->scratch && facts->l != nullptr &&
      facts->l->empty()) {
    facts->l = nullptr;
  }
  facts->e = FindBinary(*source_db, report.e_predicate);
  facts->r = FindBinary(*source_db, report.r_predicate);
  if (facts->l == nullptr || facts->l->arity() != 2) return;

  Value source = 0;
  facts->source_known =
      ResolveGroundTerm(constant, source_db->symbols(), &source);
  if (!facts->source_known) return;

  // G_L depends only on L and the source; E and R add the exact m_R.
  Relation no_e("mcm_no_e", 2), no_r("mcm_no_r", 2);
  bool full = facts->full_graph();
  auto qg = graph::QueryGraph::Build(*facts->l, full ? *facts->e : no_e,
                                     full ? *facts->r : no_r, source);
  if (!qg.ok()) {
    facts->build_error = qg.status().message();
    return;
  }
  facts->graph.emplace(std::move(*qg));
  facts->classes = graph::AnalyzeMagicGraph(facts->graph->magic_graph(),
                                            facts->graph->source());
}

void AddMcVerdicts(CountingSafetyReport* report) {
  struct VariantRow {
    const char* name;
    const char* regular;
    const char* acyclic;
    const char* cyclic;
  };
  static constexpr VariantRow kRows[] = {
      {"basic",
       "regular graph: counting covers the whole magic set",
       "non-regular graph detected: falls back to RM = MS (pure magic)",
       "non-regular graph detected: falls back to RM = MS (pure magic)"},
      {"single",
       "regular graph: i_x = +inf, counting covers the whole magic set",
       "counting restricted to indices below i_x; rest to RM",
       "counting restricted to indices below i_x; recurring nodes to RM"},
      {"multiple",
       "regular graph: every node single, counting covers everything",
       "counting keeps single nodes; multiple nodes to RM",
       "counting keeps single nodes; recurring/multiple nodes to RM"},
      {"recurring",
       "regular graph: counting covers everything",
       "counting keeps all finite index sets (single + multiple nodes)",
       "recurring nodes to RM; counting keeps the finite index sets"},
  };
  for (const VariantRow& row : kRows) {
    std::string reason;
    if (!report->analyzed) {
      reason = "safe on every instance (Proposition 3: Step 1 routes "
               "divergent nodes to RM)";
    } else {
      switch (report->graph_class) {
        case graph::GraphClass::kRegular: reason = row.regular; break;
        case graph::GraphClass::kAcyclicNonRegular:
          reason = row.acyclic;
          break;
        case graph::GraphClass::kCyclic: reason = row.cyclic; break;
      }
    }
    for (const char* mode : {"ind", "int"}) {
      MethodVerdict v;
      v.method = std::string("mc/") + row.name + "/" + mode;
      v.verdict = Verdict::kSafe;
      v.reason = reason;
      report->verdicts.push_back(std::move(v));
    }
  }
}

}  // namespace

CountingSafetyReport AnalyzeCountingSafety(
    const dl::Program& program,
    const std::optional<rewrite::RecognizedQuery>& recognized,
    const Database* db, MagicGraphFacts* facts, dl::DiagnosticBag* bag) {
  CountingSafetyReport report;
  if (!recognized.has_value()) return report;  // outside the paper's class
  const dl::Query& query = program.queries[0];

  // The L/E/R names are the single atoms' relations; a conjunction exists
  // only after materialization. A mirrored query's L is the original R.
  const rewrite::StronglyLinearQuery& q = recognized->query;
  report.form = q.reverse      ? QueryForm::kReverseBound
                : q.AllAtoms() ? QueryForm::kCanonical
                               : QueryForm::kComposed;
  report.signature = q.ToString();
  std::string unknown_reason;
  if (q.prefix_is_atom) {
    report.l_predicate = q.prefix[0].atom.predicate;
  } else {
    unknown_reason =
        "the L-part is a conjunction; its graph exists only after "
        "materialization";
  }
  if (q.exit_is_atom) report.e_predicate = q.exit_body[0].atom.predicate;
  if (q.suffix_is_atom) report.r_predicate = q.suffix[0].atom.predicate;

  bag->Add(DiagCode::kQueryClassCsl, query.span(),
           "query is " + std::string(QueryFormToString(report.form)) + ": " +
               report.signature);

  if (!report.l_predicate.empty()) {
    BuildMagicGraph(program, report, q.source, db, facts);
    if (facts->l == nullptr) {
      unknown_reason =
          "no facts or stored relation for '" + report.l_predicate + "'";
    } else if (facts->l->arity() != 2) {
      unknown_reason = "relation '" + report.l_predicate + "' is not binary";
    } else if (!facts->source_known) {
      // The query constant never occurs in the data: the magic graph is the
      // isolated source node — trivially regular, every method safe.
      report.analyzed = true;
      report.graph_class = graph::GraphClass::kRegular;
      report.magic_nodes = 1;
      report.single_nodes = 1;
    } else if (facts->graph.has_value()) {
      report.analyzed = true;
      report.graph_class = facts->classes.graph_class;
      report.magic_nodes = facts->graph->n_l();
      report.magic_arcs = facts->graph->m_l();
      for (graph::NodeClass c : facts->classes.node_class) {
        switch (c) {
          case graph::NodeClass::kSingle: ++report.single_nodes; break;
          case graph::NodeClass::kMultiple: ++report.multiple_nodes; break;
          case graph::NodeClass::kRecurring: ++report.recurring_nodes; break;
        }
      }
    } else {
      unknown_reason = facts->build_error;
    }
  }

  // --- Verdict table --------------------------------------------------
  {
    MethodVerdict v;
    v.method = "counting";
    if (!report.analyzed) {
      v.verdict = Verdict::kUnknown;
      v.reason = "cannot build the magic graph statically (" +
                 (unknown_reason.empty() ? std::string("no EDB statistics")
                                         : unknown_reason) +
                 ")";
    } else if (report.graph_class == graph::GraphClass::kCyclic) {
      v.verdict = Verdict::kUnsafe;
      v.reason = "magic graph is cyclic (" +
                 std::to_string(report.recurring_nodes) +
                 " recurring node(s)): the counting-set fixpoint diverges; "
                 "Theorem 1(b) cannot hold";
    } else if (!facts->whole_l) {
      // A cycle in part of L is a cycle in L; acyclicity is not.
      v.verdict = Verdict::kUnknown;
      v.reason = "magic graph is acyclic over part of '" + report.l_predicate +
                 "' only: the program adds tuples the graph does not hold";
    } else {
      v.verdict = Verdict::kSafe;
      v.reason = "magic graph is acyclic: every index set I_b is finite";
    }
    report.verdicts.push_back(std::move(v));
  }
  {
    MethodVerdict v;
    v.method = "magic_sets";
    v.verdict = Verdict::kSafe;
    v.reason = "safe on every instance (no counting indices involved)";
    report.verdicts.push_back(std::move(v));
  }
  AddMcVerdicts(&report);

  if (!report.analyzed) {
    bag->Add(DiagCode::kNoEdbStats, query.span(),
             "counting-safety: " +
                 (unknown_reason.empty()
                      ? std::string("no EDB statistics available")
                      : unknown_reason) +
                 "; verdicts for pure counting are structural only");
  } else if (report.graph_class == graph::GraphClass::kCyclic) {
    bag->Add(DiagCode::kCountingUnsafe,
             RecursiveRuleSpan(program, query.goal.predicate),
             "pure counting is unsafe for this instance: magic graph over '" +
                 report.l_predicate + "' is cyclic (" +
                 std::to_string(report.recurring_nodes) + " of " +
                 std::to_string(report.magic_nodes) +
                 " node(s) recurring); unsafe methods: counting "
                 "(independent and integrated); safe alternatives: "
                 "magic_sets and every magic counting method "
                 "(mc/basic..mc/recurring routes recurring nodes to the "
                 "magic side)");
  }

  return report;
}

}  // namespace mcm::analysis
