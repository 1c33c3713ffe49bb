#include "core/planner.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <utility>

#include "core/solver.h"
#include "eval/engine.h"
#include "rewrite/magic.h"
#include "rewrite/strongly_linear.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mcm::core {

std::string PlanKindToString(PlanKind k) {
  switch (k) {
    case PlanKind::kCounting:
      return "counting";
    case PlanKind::kMagicCounting:
      return "magic_counting";
    case PlanKind::kMagicSets:
      return "magic_sets";
    case PlanKind::kBottomUp:
      return "bottom_up";
  }
  return "?";
}

std::string PlanAttempt::ToString() const {
  std::string out = method + ": ";
  if (status.ok()) {
    out += "ok";
  } else {
    out += std::string(StatusCodeToString(status.code()));
    if (abort != runtime::AbortReason::kNone) {
      out += " [" + std::string(runtime::AbortReasonToString(abort)) + "]";
    }
  }
  if (predicted_reads >= 0) {
    out += StringPrintf(" (%.2fms, predicted %.0f reads)", seconds * 1e3,
                        predicted_reads);
  } else {
    out += StringPrintf(" (%.2fms)", seconds * 1e3);
  }
  return out;
}

namespace {

/// "counting: Unsafe [iteration_cap] (0.4ms) -> magic_sets: ok (1.2ms)".
std::string AttemptLogSummary(const std::vector<PlanAttempt>& attempts) {
  std::string out;
  for (size_t i = 0; i < attempts.size(); ++i) {
    if (i > 0) out += " -> ";
    out += attempts[i].ToString();
  }
  return out;
}

/// Fold the attempt log into a final failure Status so callers that only
/// see the error still learn what was tried.
Status WithAttemptLog(const Status& last,
                      const std::vector<PlanAttempt>& attempts) {
  if (attempts.size() <= 1) return last;
  return Status(last.code(),
                last.message() + "; attempts: " + AttemptLogSummary(attempts));
}

/// Position of a variant in the Figure 3 degradation order (counting ->
/// single -> multiple -> recurring -> magic sets). RecurringSmart is
/// recurring with a faster Step 1, so it degrades like recurring.
int DegradationRank(McVariant v) {
  switch (v) {
    case McVariant::kBasic:
      return 0;
    case McVariant::kSingle:
      return 1;
    case McVariant::kMultiple:
      return 2;
    case McVariant::kRecurring:
    case McVariant::kRecurringSmart:
      return 3;
  }
  return 0;
}

/// An abort the degradation ladder may recover from; cancellation and
/// genuine errors (parse, arity, internal) always propagate.
bool IsRecoverableAbort(const Status& st) {
  return st.IsUnsafe() || st.IsDeadlineExceeded();
}

/// Ladder method id ("mc/multiple/int") for a variant + mode; preserves
/// recurring_smart so the id round-trips through ParseMcId for execution.
std::string McLadderId(McVariant variant, McMode mode) {
  return "mc/" + McVariantToString(variant) + "/" +
         (mode == McMode::kIndependent ? "ind" : "int");
}

bool ParseMcId(const std::string& id, McVariant* variant, McMode* mode);

/// The cost model's prediction for a ladder method id; negative when the
/// table has no row (not computed, or an unknown id). RecurringSmart reads
/// recurring's row: same partition, faster Step 1.
double PredictedFor(const analysis::CostReport& cost, const std::string& id) {
  if (!cost.computed) return -1.0;
  std::string key = id;
  McVariant v{};
  McMode m{};
  if (ParseMcId(id, &v, &m)) {
    if (v == McVariant::kRecurringSmart) v = McVariant::kRecurring;
    key = "mc/" + McVariantToString(v) + "/" +
          (m == McMode::kIndependent ? "ind" : "int");
  }
  const analysis::CostEstimate* e = cost.EstimateFor(key);
  return e != nullptr && e->finite ? e->predicted : -1.0;
}

/// Inverse of McCostId / the ladder id format "mc/<variant>/<ind|int>".
bool ParseMcId(const std::string& id, McVariant* variant, McMode* mode) {
  if (!StartsWith(id, "mc/")) return false;
  size_t slash = id.find('/', 3);
  if (slash == std::string::npos) return false;
  std::string v = id.substr(3, slash - 3);
  std::string m = id.substr(slash + 1);
  if (v == "basic") {
    *variant = McVariant::kBasic;
  } else if (v == "single") {
    *variant = McVariant::kSingle;
  } else if (v == "multiple") {
    *variant = McVariant::kMultiple;
  } else if (v == "recurring") {
    *variant = McVariant::kRecurring;
  } else if (v == "recurring_smart") {
    *variant = McVariant::kRecurringSmart;
  } else {
    return false;
  }
  if (m == "ind" || m == "independent") {
    *mode = McMode::kIndependent;
  } else if (m == "int" || m == "integrated") {
    *mode = McMode::kIntegrated;
  } else {
    return false;
  }
  return true;
}

/// The ordered method ids the CSL-path ladder will try, shared between
/// SolveProgram (which executes them) and ExplainProgram (which only
/// reports them). Ids use the cost/verdict table naming: "counting",
/// "mc/<variant>/<ind|int>", "magic_sets".
///
/// kAuto with a computed cost report follows the predicted-cost ranking;
/// otherwise the order is the fixed Figure 3 walk (configured method, then
/// safer variants, then magic sets), with plain counting in front for
/// kCounting. `note` receives a plan-description suffix for the orders
/// that are not the fixed walk.
std::vector<std::string> LadderMethodIds(
    const PlannerOptions& options, const analysis::AnalysisResult& analysis,
    std::string* note) {
  if (options.strategy == Strategy::kAuto && analysis.cost.computed &&
      !analysis.cost.ranking.empty()) {
    // The ranking already contains exactly the safe finite methods,
    // cheapest first ("counting" only when statically safe).
    *note = "; method order auto-selected by predicted cost";
    std::vector<std::string> ids = analysis.cost.ranking;
    if (!options.allow_fallback) ids.resize(1);
    return ids;
  }
  std::vector<std::string> ids;
  if (options.strategy == Strategy::kCounting) ids.push_back("counting");
  ids.push_back(McLadderId(options.variant, options.mode));
  if (options.allow_fallback) {
    // Safer MC variants than the configured one, then magic sets.
    for (McVariant v : {McVariant::kSingle, McVariant::kMultiple,
                        McVariant::kRecurring}) {
      if (DegradationRank(v) > DegradationRank(options.variant)) {
        ids.push_back(McLadderId(v, options.mode));
      }
    }
    ids.push_back("magic_sets");
  }
  return ids;
}

/// Whether the plan walks the strongly linear ladder: the strategy tries it
/// and the analysis recognized the query. SolveProgram and ExplainProgram
/// both decide with this test.
bool WalksLadder(Strategy strategy, const analysis::AnalysisResult& analysis) {
  return strategy != Strategy::kMagicRewrite &&
         strategy != Strategy::kBottomUp && analysis.recognized.has_value();
}

/// Whether the plan runs the generalized magic rewrite (when it does not
/// walk the ladder): the strategy tries it and the analysis's binding pass
/// produced it. SolveProgram and ExplainProgram both decide with this test.
bool RunsMagicRewrite(Strategy strategy,
                      const analysis::AnalysisResult& analysis) {
  return strategy != Strategy::kBottomUp && analysis.magic.has_value();
}

/// The analysis a plan starts from: `options.analysis` when set, else one
/// analyzer run over `program` into `local`. One analyzer run replaces the
/// per-engine dl::Validate calls: planning aborts on errors, and the
/// recognized query and the safety verdicts drive the strategy choice.
Result<const analysis::AnalysisResult*> PlanningAnalysis(
    const Database* db, const dl::Program& program,
    const PlannerOptions& options, analysis::AnalysisResult* local) {
  const analysis::AnalysisResult* analysis = options.analysis;
  if (analysis == nullptr) {
    analysis::AnalyzeOptions aopts;
    aopts.db = db;
    *local = analysis::Analyze(program, aopts);
    analysis = local;
  }
  MCM_RETURN_NOT_OK(analysis->ToStatus());
  if (program.queries.size() != 1) {
    return Status::Unsupported("planner expects exactly one query");
  }
  return analysis;
}

}  // namespace

Result<PlanReport> SolveProgram(Database* db, const dl::Program& program,
                                const PlannerOptions& options) {
  analysis::AnalysisResult local_analysis;
  MCM_ASSIGN_OR_RETURN(
      const analysis::AnalysisResult* analysis,
      PlanningAnalysis(db, program, options, &local_analysis));
  const dl::Query& query = program.queries[0];

  AccessStats before = db->stats();
  std::vector<PlanAttempt> attempts;
  auto finish_report = [&analysis, &attempts, db, &before](PlanReport report) {
    report.stats.tuples_read = db->stats().tuples_read - before.tuples_read;
    report.diagnostics = analysis->diagnostics.diagnostics();
    report.safety = analysis->safety;
    report.cost = analysis->cost;
    report.attempts = std::move(attempts);
    return report;
  };

  // Governor for the program's own rules (support materialization and
  // composition, magic rewriting, bottom-up), under the program round cap.
  // Ladder tiers build their own per-attempt deadline inside the solver so
  // a retry gets a fresh budget.
  runtime::ExecutionContext planner_ctx;
  const eval::EvalOptions governed =
      GovernedEvalOptions(options.run, kProgramRoundCap, &planner_ctx);

  // --- Path 1: magic counting on a (possibly derived / composed)
  // strongly linear query. ---
  if (WalksLadder(options.strategy, *analysis)) {
    const rewrite::RecognizedQuery& recognized = *analysis->recognized;
    // Materialize derived support predicates first.
    const dl::Program& support = recognized.support;
    if (!support.rules.empty()) {
      eval::EvalOptions eopts = governed;
      eopts.assume_validated = true;
      eval::Engine engine(db, eopts);
      MCM_RETURN_NOT_OK(engine.Run(support));
    }
    const rewrite::StronglyLinearQuery& slq = recognized.query;
    MCM_ASSIGN_OR_RETURN(rewrite::CslQuery csl,
                         rewrite::MaterializeStronglyLinear(db, slq, governed));
    // A predicate with neither facts nor a stored relation denotes the
    // empty relation.
    for (const std::string* name : {&csl.l, &csl.e, &csl.r}) {
      if (db->Find(*name) == nullptr) db->GetOrCreateRelation(*name, 2);
    }
    std::string how =
        slq.AllAtoms() ? "" : " via composed L/E/R (" + slq.ToString() + ")";
    Value a = rewrite::ResolveSource(csl, db);
    CslSolver solver(db, csl.l, csl.e, csl.r, a);

    // Every rung evaluates a machine-generated rewrite of the program
    // the analyzer above already validated, so the engine may skip its
    // per-rung re-validation.
    RunOptions run_options = options.run;
    run_options.assume_validated = true;

    // Build the degradation ladder the strategy selects (see
    // LadderMethodIds). Plain counting is on it only when the cost
    // ranking proved it statically safe or the caller asked for a
    // governed attempt.
    struct Tier {
      std::string name;  ///< also the fault-injection site suffix
      PlanKind kind;
      std::string description;
      std::function<Result<MethodRun>()> run;
    };
    std::string note;
    std::vector<std::string> ids = LadderMethodIds(options, *analysis, &note);
    analysis::Verdict counting_verdict =
        analysis->safety.VerdictFor("counting");
    std::vector<Tier> ladder;
    for (const std::string& id : ids) {
      if (id == "counting") {
        std::string description =
            counting_verdict == analysis::Verdict::kSafe
                ? "pure counting (statically proven safe: acyclic "
                  "magic graph)"
                : std::string("pure counting (statically ") +
                      (counting_verdict == analysis::Verdict::kUnsafe
                           ? "unsafe"
                           : "undecidable") +
                      ", attempted under the governor)";
        ladder.push_back({"counting", PlanKind::kCounting,
                          std::move(description),
                          [&solver, &run_options] {
                            return solver.RunCounting(run_options);
                          }});
      } else if (id == "magic_sets") {
        ladder.push_back({"magic_sets", PlanKind::kMagicSets,
                          "magic sets (safe bottom of the degradation "
                          "ladder)",
                          [&solver, &run_options] {
                            return solver.RunMagicSets(run_options);
                          }});
      } else {
        McVariant variant{};
        McMode mode{};
        if (!ParseMcId(id, &variant, &mode)) continue;
        // Full-word tier name: the fault-injection sites and attempt
        // logs predate the short cost-table ids and keep their form.
        std::string label =
            McVariantToString(variant) + "/" + McModeToString(mode);
        ladder.push_back({"mc/" + label, PlanKind::kMagicCounting,
                          "magic counting (" + label + ")",
                          [&solver, &run_options, variant, mode] {
                            return solver.RunMagicCounting(
                                variant, mode, run_options);
                          }});
      }
    }
    Status last = Status::OK();
    for (size_t ti = 0; ti < ladder.size(); ++ti) {
      const Tier& tier = ladder[ti];
      Timer attempt_timer;
      Status injected =
          util::FaultInjection::Instance().Check("planner/" + tier.name);
      Result<MethodRun> run =
          injected.ok() ? tier.run() : Result<MethodRun>(injected);
      PlanAttempt attempt;
      attempt.method = tier.name;
      attempt.status = run.ok() ? Status::OK() : run.status();
      attempt.abort = runtime::ClassifyAbort(attempt.status);
      attempt.seconds = attempt_timer.ElapsedSeconds();
      attempt.predicted_reads = PredictedFor(analysis->cost, tier.name);
      attempts.push_back(std::move(attempt));
      if (run.ok()) {
        PlanReport report;
        report.kind = tier.kind;
        report.predicted_reads = attempts.back().predicted_reads;
        report.description =
            tier.description + " over " + csl.ToString() + how +
            (support.rules.empty() ? "" : " with materialized support") +
            note;
        if (attempts.size() > 1) {
          report.description +=
              "; degradation ladder: " + AttemptLogSummary(attempts);
        }
        report.detected_class = run->detected_class;
        // Whole goal tuples, as on the other paths: (a, v) for P(a, Y)?,
        // (v, b) for P(X, b)?.
        for (Value v : run->answers) {
          report.results.push_back(slq.reverse ? Tuple{v, a} : Tuple{a, v});
        }
        return finish_report(std::move(report));
      }
      last = run.status();
      if (!options.allow_fallback || !IsRecoverableAbort(last) ||
          ti + 1 == ladder.size()) {
        return WithAttemptLog(last, attempts);
      }
    }
    return WithAttemptLog(last, attempts);  // unreachable: ladder != []
  }

  // --- Path 2: generalized magic sets when the goal carries bindings. ---
  if (RunsMagicRewrite(options.strategy, *analysis)) {
    const rewrite::MagicProgram& magic = *analysis->magic;
    MCM_RETURN_NOT_OK(
        util::FaultInjection::Instance().Check("planner/magic_rewrite"));
    eval::EvalOptions eopts = governed;
    eopts.assume_validated = true;  // MagicRewrite validated its output
    eval::Engine engine(db, eopts);
    Timer attempt_timer;
    Status st = engine.Run(magic.program);
    attempts.push_back(PlanAttempt{"magic_rewrite", st,
                                   runtime::ClassifyAbort(st),
                                   attempt_timer.ElapsedSeconds()});
    if (st.ok()) {
      MCM_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                           engine.Query(magic.adorned_goal));
      PlanReport report;
      report.kind = PlanKind::kMagicSets;
      report.description = "generalized magic sets (goal pattern drives " +
                           magic.adorned_goal.predicate + ")";
      report.results = std::move(tuples);
      return finish_report(std::move(report));
    }
    // The governor's deadline/cancellation is global to this plan, so a
    // retry cannot succeed — propagate. Other failures (a non-stratifiable
    // rewritten program, cap trips) fall through to bottom-up.
    if (st.IsCancelled() || st.IsDeadlineExceeded() ||
        !options.allow_fallback) {
      return WithAttemptLog(st, attempts);
    }
  }

  // --- Path 3: plain bottom-up evaluation. ---
  MCM_RETURN_NOT_OK(
      util::FaultInjection::Instance().Check("planner/bottom_up"));
  eval::EvalOptions eopts = governed;
  eopts.assume_validated = true;  // the analyzer above already validated
  eval::Engine engine(db, eopts);
  Timer attempt_timer;
  Status st = engine.Run(program);
  attempts.push_back(PlanAttempt{"bottom_up", st, runtime::ClassifyAbort(st),
                                 attempt_timer.ElapsedSeconds()});
  if (!st.ok()) return WithAttemptLog(st, attempts);
  MCM_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, engine.Query(query.goal));
  PlanReport report;
  report.kind = PlanKind::kBottomUp;
  report.description = "bottom-up seminaive evaluation";
  report.results = std::move(tuples);
  return finish_report(std::move(report));
}

Result<PlanReport> ExplainProgram(const Database* db,
                                  const dl::Program& program,
                                  const PlannerOptions& options) {
  analysis::AnalysisResult local_analysis;
  MCM_ASSIGN_OR_RETURN(
      const analysis::AnalysisResult* analysis,
      PlanningAnalysis(db, program, options, &local_analysis));

  PlanReport report;
  report.diagnostics = analysis->diagnostics.diagnostics();
  report.safety = analysis->safety;
  report.cost = analysis->cost;

  // Mirror SolveProgram's strategy choice without executing anything.
  if (WalksLadder(options.strategy, *analysis)) {
    std::string note;
    std::vector<std::string> ids = LadderMethodIds(options, *analysis, &note);
    const std::string& chosen = ids.front();  // never empty
    if (chosen == "counting") {
      report.kind = PlanKind::kCounting;
    } else if (chosen == "magic_sets") {
      report.kind = PlanKind::kMagicSets;
    } else {
      report.kind = PlanKind::kMagicCounting;
    }
    report.predicted_reads = PredictedFor(analysis->cost, chosen);
    report.description = "explain: would run " + chosen + " over " +
                         analysis->safety.signature + note + "; ladder: " +
                         Join(ids, " -> ");
    for (const std::string& id : ids) {
      PlanAttempt attempt;
      attempt.method = id;
      attempt.predicted_reads = PredictedFor(analysis->cost, id);
      report.attempts.push_back(std::move(attempt));
    }
    return report;
  }

  if (RunsMagicRewrite(options.strategy, *analysis)) {
    report.kind = PlanKind::kMagicSets;
    report.description =
        "explain: would run generalized magic sets (goal pattern drives " +
        analysis->magic->adorned_goal.predicate + ")";
    return report;
  }
  report.kind = PlanKind::kBottomUp;
  report.description = "explain: would run bottom-up seminaive evaluation";
  return report;
}

bool ParseMethod(std::string_view spec, PlannerOptions* options) {
  static constexpr std::pair<std::string_view, Strategy> kNamed[] = {
      {"auto", Strategy::kAuto},
      {"safe", Strategy::kSafe},
      {"counting", Strategy::kCounting},
      {"magic", Strategy::kMagicRewrite},
      {"bottom_up", Strategy::kBottomUp},
  };
  for (const auto& [name, strategy] : kNamed) {
    if (spec == name) {
      options->strategy = strategy;
      return true;
    }
  }
  // "mc:V:M" is the ladder id "mc/V/M", with "smart" short for
  // recurring_smart.
  if (!StartsWith(spec, "mc:")) return false;
  std::string id(spec);
  std::replace(id.begin(), id.end(), ':', '/');
  if (StartsWith(id, "mc/smart/")) id = "mc/recurring_smart/" + id.substr(9);
  McVariant variant{};
  McMode mode{};
  if (!ParseMcId(id, &variant, &mode)) return false;
  options->strategy = Strategy::kSafe;
  options->variant = variant;
  options->mode = mode;
  return true;
}

}  // namespace mcm::core
