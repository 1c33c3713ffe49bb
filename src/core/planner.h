// Query planner: evaluate an arbitrary program + query with the best
// applicable strategy.
//
// Strategy selection, in order:
//  0. The static analyzer (analysis::Analyze) runs once over the program:
//     validation errors abort planning, and its counting-safety verdict
//     table gates the strategies below.
//  1. If the analyzer recognized a strongly linear form
//     (AnalysisResult::recognized, which the safety pass reads too) —
//     L, E, R stored or *derived* in lower, non-recursive strata, or
//     conjunctions (the generalization Section 1 of the paper mentions),
//     under P(a, Y)? or the mirrored P(X, b)? — the support strata and any
//     composed L/E/R are materialized first (a failure there is returned)
//     and the query is answered by walking the method ladder that
//     PlannerOptions::strategy selects (by default from multiple /
//     integrated, the best safe all-rounder of the family). ExplainProgram
//     reports this path under the same test.
//  2. Otherwise, if the analyzer's binding pass produced the generalized
//     magic set rewriting of the query (AnalysisResult::magic: a bound
//     argument, an IDB goal and a valid rewritten program), the rewritten
//     program is evaluated.
//  3. Otherwise the program is evaluated bottom-up as-is.
// Every path returns whole goal tuples in PlanReport::results.
//
// Runtime safety net: every execution is governed (deadline, cancellation,
// iteration/tuple/memory caps from RunOptions through GovernedEvalOptions,
// under the one default round-cap policy of RunOptions::max_iterations:
// n_L rounds for plain counting, none for the other CSL rungs,
// kProgramRoundCap for the program's own rules), and on the
// strongly linear path a dynamic abort triggers retry-with-degradation
// down the paper's Figure 3 hierarchy — counting, then the magic counting
// variants, then plain magic sets (always safe). Each try is recorded in
// PlanReport::attempts so callers can see what was tried, why it failed,
// and what finally answered the query.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "core/method.h"
#include "datalog/ast.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::core {

/// Which strategy the planner ended up using.
enum class PlanKind : uint8_t {
  kCounting,       ///< pure counting: ranked by kAuto only when statically
                   ///< safe, attempted by kCounting under the governor
  kMagicCounting,  ///< CSL path: Step1 + Step2 of the chosen MC method
  kMagicSets,      ///< generalized magic rewriting
  kBottomUp,       ///< plain seminaive evaluation
};

std::string PlanKindToString(PlanKind k);

/// Where the planner's method walk starts: one value per ladder shape.
/// The strongly linear path walks the Figure 3 hierarchy (counting, the
/// magic counting variants, magic sets); the other paths try the
/// generalized magic rewrite for a bound goal, then bottom-up evaluation.
enum class Strategy : uint8_t {
  /// The fixed walk: the configured MC method (variant/mode), the safer
  /// variants, then magic sets. The default.
  kSafe,
  /// The cost pass's predicted-cost ranking, cheapest first. Counting is
  /// ranked only when statically safe. The kSafe walk when the cost table
  /// was not computed.
  kAuto,
  /// Plain counting first, attempted under the governor even when the
  /// static verdict is unsafe or undecidable, then the kSafe walk: safety
  /// becomes data-dependent, as the paper argues, instead of all-or-nothing.
  kCounting,
  /// Skip the strongly linear path: magic rewrite, then bottom-up.
  kMagicRewrite,
  /// Plain bottom-up evaluation only.
  kBottomUp,
};

struct PlannerOptions {
  /// MC method the kSafe and kCounting walks start from.
  McVariant variant = McVariant::kMultiple;
  McMode mode = McMode::kIntegrated;
  RunOptions run;
  Strategy strategy = Strategy::kSafe;
  /// Retry-with-degradation: when an attempt aborts with kUnsafe or
  /// kDeadlineExceeded, re-run with the next rung of the ladder (and let a
  /// failed magic rewrite fall back to bottom-up). Cancellation is never
  /// retried. When false, only the first rung runs and its abort is
  /// returned to the caller as-is.
  bool allow_fallback = true;
  /// Precomputed analysis of `program` against the same database. When
  /// null, SolveProgram runs the analyzer itself.
  const analysis::AnalysisResult* analysis = nullptr;
};

/// Parse a method spec into `options`: the one vocabulary shared by mcmq,
/// mcm-serve and the line protocol.
///   auto       -> Strategy::kAuto
///   safe       -> Strategy::kSafe
///   counting   -> Strategy::kCounting
///   magic      -> Strategy::kMagicRewrite
///   bottom_up  -> Strategy::kBottomUp
///   mc:V:M     -> Strategy::kSafe from variant V (basic|single|multiple|
///                 recurring|smart) and mode M (ind|int); the ladder-id
///                 spellings recurring_smart, independent and integrated
///                 are accepted too
/// Returns false, leaving `options` untouched, on any other spec.
[[nodiscard]] bool ParseMethod(std::string_view spec, PlannerOptions* options);

/// One entry of the planner's execution attempt log.
struct PlanAttempt {
  std::string method;  ///< "counting", "mc/multiple/integrated", ...
  Status status;       ///< OK for the attempt that answered the query
  runtime::AbortReason abort = runtime::AbortReason::kNone;
  double seconds = 0.0;
  /// Cost-model prediction for this method in tuple retrievals; negative
  /// when the cost pass had nothing (outside the CSL class, no EDB stats).
  double predicted_reads = -1.0;

  /// e.g. "counting: Unsafe [iteration_cap] (0.42ms)" or "magic_sets: ok".
  std::string ToString() const;
};

/// \brief Result of planning + executing one query.
struct PlanReport {
  PlanKind kind = PlanKind::kBottomUp;
  std::string description;      ///< human-readable plan summary
  std::vector<Tuple> results;   ///< tuples matching the query goal
  AccessStats stats;            ///< total retrieval cost of the execution
  graph::GraphClass detected_class = graph::GraphClass::kRegular;
  /// Analyzer output for the planned program: warnings/notes (errors abort
  /// planning before a report exists) and the static safety verdicts.
  std::vector<dl::Diagnostic> diagnostics;
  analysis::CountingSafetyReport safety;
  /// The cost pass's per-method table (Propositions 4-7); cost.computed is
  /// false outside the strongly linear class or without EDB statistics.
  analysis::CostReport cost;
  /// Predicted tuple retrievals for the method that answered the query
  /// (negative when no prediction existed); compare with
  /// stats.tuples_read, the measured count.
  double predicted_reads = -1.0;
  /// Everything the planner tried, in order; the last entry is the attempt
  /// that produced `results`. Size > 1 means the degradation ladder fired.
  std::vector<PlanAttempt> attempts;
};

/// Plan and execute the single query of `program` against `db` (EDB
/// relations must be loaded; IDB relations are created).
Result<PlanReport> SolveProgram(Database* db, const dl::Program& program,
                                const PlannerOptions& options = {});

/// Plan WITHOUT executing: run the analyzer (including the cost pass) and
/// report which method the planner would choose and in what ladder order,
/// with the cost table in PlanReport::cost. `results` stays empty and no
/// fixpoint runs — this is `mcmq --explain` / REPL `:explain`.
Result<PlanReport> ExplainProgram(const Database* db,
                                  const dl::Program& program,
                                  const PlannerOptions& options = {});

}  // namespace mcm::core
