#include "analysis/analyzer.h"

#include <set>

#include "datalog/validate.h"
#include "rewrite/adornment.h"
#include "util/string_util.h"

namespace mcm::analysis {

using dl::DiagCode;

namespace {

/// Pass 3: adornment / binding-pattern feasibility for each query goal.
///
/// Flags goals whose binding pattern cannot restrict anything (all-free)
/// and goals for which the generalized magic set rewriting under the
/// standard left-to-right sideways information passing fails (adornment
/// fails, or the rewritten program is invalid): the planner then falls
/// back to bottom-up. Returns the rewriting of the program's goal when the
/// program has exactly one query and the rewriting succeeded.
std::optional<rewrite::MagicProgram> AnalyzeBindings(
    const dl::Program& program, const DependencyInfo& deps,
    dl::DiagnosticBag* bag) {
  std::optional<rewrite::MagicProgram> single;
  for (const dl::Query& q : program.queries) {
    rewrite::Pattern pattern = rewrite::GoalPattern(q.goal);
    if (pattern.find('b') == rewrite::Pattern::npos) {
      if (!pattern.empty()) {
        bag->Add(DiagCode::kUnboundQuery, q.span(),
                 "query goal '" + q.goal.ToString() +
                     "' has no bound argument: bindings cannot restrict the "
                     "computation (magic rewriting degenerates to "
                     "bottom-up)");
      }
      continue;
    }

    // Only IDB goals are adorned; querying a plain relation needs no
    // binding propagation.
    graph::NodeId id = deps.IdOf(q.goal.predicate);
    bool is_idb =
        id != graph::kInvalidNode && id < deps.is_idb.size() && deps.is_idb[id];
    if (!is_idb) continue;

    Result<rewrite::MagicProgram> magic = rewrite::MagicRewrite(program, q.goal);
    if (!magic.ok()) {
      bag->Add(DiagCode::kAdornmentFailed, q.span(),
               "binding pattern '" + pattern + "' cannot be propagated: " +
                   magic.status().message());
      continue;
    }
    // Adorned versions head the modified rules; magic predicates head the
    // rest.
    std::set<std::string> versions;
    for (const dl::Rule& r : magic->program.rules) {
      const std::string& head = r.head.predicate;
      if (head.find("__") != std::string::npos &&
          !StartsWith(head, rewrite::MagicOptions{}.magic_prefix)) {
        versions.insert(head);
      }
    }
    bag->Add(DiagCode::kBindingSummary, q.span(),
             "binding pattern '" + pattern + "' on '" + q.goal.predicate +
                 "' propagates to " + std::to_string(versions.size()) +
                 " adorned predicate version(s)");
    if (program.queries.size() == 1) single = std::move(*magic);
  }
  return single;
}

}  // namespace

AnalysisResult Analyze(const dl::Program& program,
                       const AnalyzeOptions& options) {
  AnalysisResult result;

  dl::ValidateInto(program, &result.diagnostics);
  result.deps = AnalyzeDependencies(program, options.db, &result.diagnostics);
  result.magic = AnalyzeBindings(program, result.deps, &result.diagnostics);
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
