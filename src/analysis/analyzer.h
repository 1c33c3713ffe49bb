// Multi-pass static analyzer over parsed Datalog programs.
//
// Pass order (each appends structured diagnostics to one shared bag):
//   1. validation       — every arity / range-restriction / floundering /
//                         affine violation in the program (dl::ValidateInto),
//   2. dependency graph — IDB/EDB split, undefined / unused / unreachable
//                         predicates, negation-through-recursion,
//   3. binding analysis — the generalized magic set rewriting of the
//                         query's binding pattern under the left-to-right
//                         SIPS, kept on AnalysisResult::magic when it
//                         succeeds,
//   4. counting safety  — query-form classification (CSL and friends),
//                         magic-graph skeleton from EDB statistics, and the
//                         per-method safe/unsafe verdict table of
//                         Theorems 1-2,
//   5. cost model       — the Propositions 4-7 formulas evaluated over the
//                         magic-graph skeleton: a per-method cost table,
//                         the Figure 3 dominance arcs, and a predicted-cost
//                         ranking of the safe methods.
//
// Before pass 4, Analyze recognizes the query's strongly linear form once
// (rewrite::RecognizeQuery) and keeps it on AnalysisResult::recognized,
// whether or not passes 4-5 run. Passes 2-5 are advisory (warnings/notes)
// and run even when validation found errors, so one lint run paints the
// whole picture. The planner (core::SolveProgram, core::ExplainProgram)
// and mcm-lint all consume AnalysisResult instead of re-deriving any of
// this.
#pragma once

#include <optional>

#include "analysis/cost_model.h"
#include "analysis/depgraph.h"
#include "analysis/safety.h"
#include "datalog/ast.h"
#include "datalog/diagnostic.h"
#include "rewrite/magic.h"
#include "rewrite/strongly_linear.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::analysis {

/// Which passes to run and what context they may use.
struct AnalyzeOptions {
  /// EDB statistics source for the dependency and safety passes. May be
  /// null: the passes then fall back to in-program facts and structural
  /// reasoning. Never mutated.
  const Database* db = nullptr;
  /// Run passes 4 and 5 (counting safety and cost model). The cost pass
  /// consumes the safety pass's query-form classification, so the two go
  /// together. Passes 1-3 always run.
  bool counting_safety = true;
};

/// \brief Everything the analyzer learned about one program.
struct AnalysisResult {
  dl::DiagnosticBag diagnostics;
  DependencyInfo deps;
  /// The query's strongly linear form; nullopt outside the paper's class.
  /// The safety pass reads it, and the planner walks the method ladder
  /// exactly when it is set (and the strategy tries the ladder).
  std::optional<rewrite::RecognizedQuery> recognized;
  /// The generalized magic set rewriting of the single query's goal; nullopt
  /// when the goal has no bound argument, is not derived, or the rewriting
  /// fails (W301). The planner runs it exactly when it is set (and the
  /// strongly linear path is not taken).
  std::optional<rewrite::MagicProgram> magic;
  CountingSafetyReport safety;
  CostReport cost;

  bool ok() const { return !diagnostics.has_errors(); }

  /// OK when no errors were found; first error otherwise (same contract as
  /// dl::Validate, so engine callers can swap it in directly).
  Status ToStatus() const { return diagnostics.ToStatus(); }
};

/// Run the analyzer passes over `program`. Diagnostics come back sorted by
/// source position.
AnalysisResult Analyze(const dl::Program& program,
                       const AnalyzeOptions& options = {});

}  // namespace mcm::analysis
