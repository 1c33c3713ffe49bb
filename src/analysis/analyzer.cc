#include "analysis/analyzer.h"

#include "datalog/validate.h"
#include "rewrite/adornment.h"

namespace mcm::analysis {

using dl::DiagCode;

namespace {

/// Pass 3: adornment / binding-pattern feasibility for each query goal.
///
/// Flags goals whose binding pattern cannot restrict anything (all-free)
/// and goals for which the standard left-to-right sideways information
/// passing fails to produce an adorned program (the magic rewriting would
/// then be unavailable and the planner falls back to bottom-up).
void AnalyzeBindings(const dl::Program& program, const DependencyInfo& deps,
                     dl::DiagnosticBag* bag) {
  for (const dl::Query& q : program.queries) {
    rewrite::Pattern pattern = rewrite::GoalPattern(q.goal);
    bool has_bound = pattern.find('b') != rewrite::Pattern::npos;
    if (!has_bound && !pattern.empty()) {
      bag->Add(DiagCode::kUnboundQuery, q.span(),
               "query goal '" + q.goal.ToString() +
                   "' has no bound argument: bindings cannot restrict the "
                   "computation (magic rewriting degenerates to bottom-up)");
      continue;
    }

    // Only IDB goals are adorned; querying a plain relation needs no
    // binding propagation.
    graph::NodeId id = deps.IdOf(q.goal.predicate);
    bool is_idb =
        id != graph::kInvalidNode && id < deps.is_idb.size() && deps.is_idb[id];
    if (!is_idb) continue;

    auto adorned = rewrite::Adorn(program, q.goal);
    if (!adorned.ok()) {
      bag->Add(DiagCode::kAdornmentFailed, q.span(),
               "binding pattern '" + pattern + "' cannot be propagated: " +
                   adorned.status().message());
      continue;
    }
    size_t versions = 0;
    for (const auto& [pred, arity] : adorned->program.PredicateArities()) {
      (void)arity;
      if (pred.find("__") != std::string::npos) ++versions;
    }
    bag->Add(DiagCode::kBindingSummary, q.span(),
             "binding pattern '" + pattern + "' on '" + q.goal.predicate +
                 "' propagates to " + std::to_string(versions) +
                 " adorned predicate version(s)");
  }
}

}  // namespace

AnalysisResult Analyze(const dl::Program& program,
                       const AnalyzeOptions& options) {
  AnalysisResult result;

  dl::ValidateInto(program, &result.diagnostics);
  result.deps = AnalyzeDependencies(program, options.db, &result.diagnostics);
  AnalyzeBindings(program, result.deps, &result.diagnostics);
  if (Result<rewrite::RecognizedQuery> recognized =
          rewrite::RecognizeQuery(program);
      recognized.ok()) {
    result.recognized = std::move(*recognized);
  }
  if (options.counting_safety) {
    // One magic graph per request: the safety pass builds it, the cost pass
    // reads it, and it dies with this call.
    MagicGraphFacts facts;
    result.safety =
        AnalyzeCountingSafety(program, result.recognized, options.db, &facts,
                              &result.diagnostics);
    result.cost = AnalyzeCost(program, result.safety, facts,
                              &result.diagnostics);
  }

  result.diagnostics.SortBySpan();
  return result;
}

}  // namespace mcm::analysis
