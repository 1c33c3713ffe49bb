#include "core/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "datalog/parser.h"
#include "eval/engine.h"
#include "workload/generators.h"

namespace mcm::core {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  Result<PlanReport> Solve(const std::string& src,
                           PlannerOptions options = {}) {
    auto prog = dl::Parse(src);
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    return SolveProgram(&db_, *prog, options);
  }

  Database db_;
};

TEST_F(PlannerTest, CslQueryUsesMagicCounting) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  auto report = Solve(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
  std::vector<Value> answers;
  for (const Tuple& t : report->results) answers.push_back(t[1]);
  std::sort(answers.begin(), answers.end());
  EXPECT_EQ(answers, (std::vector<Value>{100, 101, 102, 107}));
}

TEST_F(PlannerTest, DerivedLErSupportMaterialized) {
  // L is a *derived* predicate (the union of two base relations) — the
  // generalization the paper's Section 1 mentions.
  Relation* l1 = db_.GetOrCreateRelation("l1", 2);
  Relation* l2 = db_.GetOrCreateRelation("l2", 2);
  Relation* e = db_.GetOrCreateRelation("e", 2);
  Relation* r = db_.GetOrCreateRelation("r", 2);
  l1->Insert2(0, 1);
  l2->Insert2(1, 2);
  e->Insert2(2, 102);
  r->Insert2(101, 102);
  r->Insert2(100, 101);
  auto report = Solve(R"(
    l(X, Y) :- l1(X, Y).
    l(X, Y) :- l2(X, Y).
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
  ASSERT_EQ(report->results.size(), 1u);
  EXPECT_EQ(report->results[0][1], 100);  // two L steps, two R steps down
}

TEST_F(PlannerTest, NonCslBoundQueryFallsBackToMagic) {
  Relation* e = db_.GetOrCreateRelation("e", 2);
  for (int i = 0; i < 5; ++i) e->Insert2(i, i + 1);
  auto report = Solve(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    tc(0, Y)?
  )");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kMagicSets);
  EXPECT_EQ(report->results.size(), 5u);
}

TEST_F(PlannerTest, FreeQueryUsesBottomUp) {
  Relation* e = db_.GetOrCreateRelation("e", 2);
  e->Insert2(1, 2);
  e->Insert2(2, 3);
  auto report = Solve(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    tc(X, Y)?
  )");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, PlanKind::kBottomUp);
  EXPECT_EQ(report->results.size(), 3u);
}

TEST_F(PlannerTest, PathsAgreeOnCslInstances) {
  workload::CslData data = workload::MakeSameGeneration(40, 2, 77);
  data.Load(&db_, "parent", "eq", "parent");
  const char* src = R"(
    sg(X, Y) :- eq(X, Y).
    sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
    sg(0, Y)?
  )";
  PlannerOptions mc;
  auto a = Solve(src, mc);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->kind, PlanKind::kMagicCounting);

  PlannerOptions magic_only;
  magic_only.strategy = Strategy::kMagicRewrite;
  auto b = Solve(src, magic_only);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->kind, PlanKind::kMagicSets);

  PlannerOptions bottom_up;
  bottom_up.strategy = Strategy::kBottomUp;
  auto c = Solve(src, bottom_up);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->kind, PlanKind::kBottomUp);

  // Same answer set everywhere (every path returns sg(0, Y) tuples;
  // compare Y columns).
  auto ys = [](const std::vector<Tuple>& tuples) {
    std::vector<Value> out;
    for (const Tuple& t : tuples) out.push_back(t[t.arity() - 1]);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  EXPECT_EQ(ys(a->results), ys(b->results));
  EXPECT_EQ(ys(b->results), ys(c->results));
}

TEST_F(PlannerTest, CyclicDataStaysSafeOnMcPath) {
  workload::CslData data;
  data.l = {{0, 1}, {1, 0}};
  data.e = {{0, 100}, {1, 101}};
  data.r = {{100, 101}};
  data.Load(&db_);
  // The smart variant reports the exact graph class; the default multiple
  // variant would only see "non-regular".
  PlannerOptions options;
  options.variant = McVariant::kRecurringSmart;
  auto report = Solve(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
  EXPECT_EQ(report->detected_class, graph::GraphClass::kCyclic);
  EXPECT_FALSE(report->results.empty());
}

TEST_F(PlannerTest, MultipleQueriesRejected) {
  db_.GetOrCreateRelation("e", 2)->Insert2(1, 2);
  auto report = Solve("p(X) :- e(X, X). p(1)? p(2)?");
  EXPECT_FALSE(report.ok());
}

TEST_F(PlannerTest, StatsAreCharged) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  auto report = Solve(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )");
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->stats.tuples_read, 0u);
  EXPECT_FALSE(report->description.empty());
}

TEST_F(PlannerTest, PlanKindNames) {
  EXPECT_EQ(PlanKindToString(PlanKind::kCounting), "counting");
  EXPECT_EQ(PlanKindToString(PlanKind::kMagicCounting), "magic_counting");
  EXPECT_EQ(PlanKindToString(PlanKind::kMagicSets), "magic_sets");
  EXPECT_EQ(PlanKindToString(PlanKind::kBottomUp), "bottom_up");
}

TEST_F(PlannerTest, PlainCountingChosenWhenStaticallySafe) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  const char* src = R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )";
  PlannerOptions options;
  options.strategy = Strategy::kCounting;
  auto report = Solve(src, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kCounting);
  EXPECT_EQ(report->safety.VerdictFor("counting"),
            analysis::Verdict::kSafe);
  std::vector<Value> answers;
  for (const Tuple& t : report->results) answers.push_back(t[1]);
  std::sort(answers.begin(), answers.end());
  EXPECT_EQ(answers, (std::vector<Value>{100, 101, 102, 107}));
}

TEST_F(PlannerTest, PlainCountingRefusedOnCyclicMagicGraph) {
  workload::CslData data;
  data.l = {{0, 1}, {1, 0}};
  data.e = {{0, 100}, {1, 101}};
  data.r = {{100, 101}};
  data.Load(&db_);
  const char* src = R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )";

  // Cost-ranked selection keeps the static gate: the verdict is unsafe,
  // so pure counting never makes the ladder.
  PlannerOptions options;
  options.strategy = Strategy::kAuto;
  auto report = Solve(src, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->kind, PlanKind::kCounting);
  for (const PlanAttempt& a : report->attempts) {
    EXPECT_NE(a.method, "counting");
  }
  EXPECT_EQ(report->safety.VerdictFor("counting"),
            analysis::Verdict::kUnsafe);
  bool warned = false;
  for (const dl::Diagnostic& d : report->diagnostics) {
    if (d.code == dl::DiagCode::kCountingUnsafe) warned = true;
  }
  EXPECT_TRUE(warned);

  // ... and the fallback answers must match the magic-set reference.
  Database db2;
  data.Load(&db2);
  PlannerOptions magic_only;
  magic_only.strategy = Strategy::kMagicRewrite;
  auto prog = dl::Parse(src);
  ASSERT_TRUE(prog.ok());
  auto reference = SolveProgram(&db2, *prog, magic_only);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(reference->kind, PlanKind::kMagicSets);
  auto ys = [](const std::vector<Tuple>& tuples) {
    std::vector<Value> out;
    for (const Tuple& t : tuples) out.push_back(t[t.arity() - 1]);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  EXPECT_FALSE(report->results.empty());
  EXPECT_EQ(ys(report->results), ys(reference->results));
}

TEST_F(PlannerTest, CountingNotUsedWithoutOptIn) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  auto report = Solve(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
}

TEST_F(PlannerTest, ReportCarriesAnalyzerOutput) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  auto report = Solve(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )");
  ASSERT_TRUE(report.ok());
  bool classified = false;
  for (const dl::Diagnostic& d : report->diagnostics) {
    if (d.code == dl::DiagCode::kQueryClassCsl) classified = true;
  }
  EXPECT_TRUE(classified);
  EXPECT_EQ(report->safety.form, analysis::QueryForm::kCanonical);
  EXPECT_FALSE(report->safety.verdicts.empty());
}

TEST_F(PlannerTest, PrecomputedAnalysisIsReused) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  auto prog = dl::Parse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )");
  ASSERT_TRUE(prog.ok());
  analysis::AnalyzeOptions aopts;
  aopts.db = &db_;
  analysis::AnalysisResult precomputed = analysis::Analyze(*prog, aopts);
  PlannerOptions options;
  options.analysis = &precomputed;
  options.strategy = Strategy::kCounting;
  auto report = SolveProgram(&db_, *prog, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kCounting);
  EXPECT_EQ(report->diagnostics.size(), precomputed.diagnostics.size());
}

TEST_F(PlannerTest, ValidationErrorsAbortPlanning) {
  db_.GetOrCreateRelation("q", 1)->Insert(Tuple{1});
  auto report = Solve("p(X, Z) :- q(X).\np(1, Y)?");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("Z"), std::string::npos);
}

constexpr const char* kCslSource = R"(
  p(X, Y) :- e(X, Y).
  p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
  p(0, Y)?
)";

TEST_F(PlannerTest, AutoSelectFollowsCostRanking) {
  // A wide regular tree: the cost model predicts plain counting cheapest,
  // so kAuto must run it — the ranking admits counting because it is
  // statically safe here.
  workload::CslData data =
      workload::AssembleCsl(workload::MakeTreeL(2, 3), {});
  data.Load(&db_);
  PlannerOptions options;
  options.strategy = Strategy::kAuto;
  auto report = Solve(kCslSource, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kCounting);
  EXPECT_NE(report->description.find("auto-selected by predicted cost"),
            std::string::npos);
  ASSERT_TRUE(report->cost.computed);
  EXPECT_EQ(report->cost.ranking.front(), "counting");
}

TEST_F(PlannerTest, AutoSelectRecordsPredictedVsActual) {
  workload::CslData data =
      workload::AssembleCsl(workload::MakeTreeL(2, 3), {});
  data.Load(&db_);
  PlannerOptions options;
  options.strategy = Strategy::kAuto;
  auto report = Solve(kCslSource, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The winning attempt and the report share the prediction; it must be in
  // the same ballpark as the measured reads (the integration test pins the
  // factor; here we only require both sides to be recorded).
  EXPECT_GE(report->predicted_reads, 0);
  EXPECT_GT(report->stats.tuples_read, 0u);
  ASSERT_FALSE(report->attempts.empty());
  EXPECT_EQ(report->attempts.back().predicted_reads, report->predicted_reads);
}

TEST_F(PlannerTest, AutoSelectNeverPicksCountingWhenCyclic) {
  workload::LayeredSpec spec;
  spec.layers = 4;
  spec.width = 3;
  spec.back_arcs = 2;
  spec.bad_start_layer = 1;
  workload::CslData data =
      workload::AssembleCsl(workload::MakeLayeredL(spec), {});
  data.Load(&db_);
  PlannerOptions options;
  options.strategy = Strategy::kAuto;
  auto report = Solve(kCslSource, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->kind, PlanKind::kCounting);
  for (const PlanAttempt& a : report->attempts) {
    EXPECT_NE(a.method, "counting");
  }
}

TEST_F(PlannerTest, ExplainReportsWithoutExecuting) {
  workload::CslData data =
      workload::AssembleCsl(workload::MakeTreeL(2, 3), {});
  data.Load(&db_);
  auto prog = dl::Parse(kCslSource);
  ASSERT_TRUE(prog.ok());
  PlannerOptions options;
  options.strategy = Strategy::kAuto;
  auto report = ExplainProgram(&db_, *prog, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // No fixpoint ran: no results, and (apart from the analyzer's statistics
  // scans) the plan kind and ladder came from the cost table alone.
  EXPECT_TRUE(report->results.empty());
  EXPECT_EQ(report->kind, PlanKind::kCounting);
  EXPECT_NE(report->description.find("explain: would run counting"),
            std::string::npos);
  ASSERT_TRUE(report->cost.computed);
  EXPECT_EQ(report->attempts.size(), report->cost.ranking.size());
  EXPECT_GE(report->predicted_reads, 0);
  // The planner's IDB working relations must not exist afterwards.
  EXPECT_EQ(db_.Find("mcm_p"), nullptr);
}

TEST_F(PlannerTest, ExplainFallsBackToFixedOrderWithoutAutoSelect) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  auto prog = dl::Parse(kCslSource);
  ASSERT_TRUE(prog.ok());
  auto report = ExplainProgram(&db_, *prog);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Default configured method heads the fixed ladder.
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
  ASSERT_FALSE(report->attempts.empty());
  EXPECT_EQ(report->attempts.front().method, "mc/multiple/int");
}

TEST_F(PlannerTest, ExplainNonCslQuery) {
  db_.GetOrCreateRelation("edge", 2)->Insert2(1, 2);
  auto prog = dl::Parse(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- tc(X, Z), edge(Z, Y).
    tc(1, Y)?
  )");
  ASSERT_TRUE(prog.ok());
  auto report = ExplainProgram(&db_, *prog);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kMagicSets);
  EXPECT_TRUE(report->results.empty());
}

// A strongly linear predicate with neither facts nor a stored relation is
// the empty relation: R here. Solving must run the ladder explain reports,
// not slip to the generalized magic rewrite.
TEST_F(PlannerTest, MissingRelationSolveRunsTheExplainedFirstRung) {
  auto prog = dl::Parse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    l(1, 2). e(2, 3). e(1, 4).
    p(1, Y)?
  )");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto explain = ExplainProgram(&db_, *prog);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  ASSERT_FALSE(explain->attempts.empty());
  EXPECT_EQ(explain->attempts.front().method, "mc/multiple/int");

  auto report = SolveProgram(&db_, *prog);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->attempts.empty());
  EXPECT_EQ(report->attempts.front().method, "mc/multiple/integrated");
  EXPECT_EQ(report->kind, explain->kind);
  ASSERT_EQ(report->results.size(), 1u);
  EXPECT_EQ(report->results[0][1], 4);
}

// The reverse-bound form of the same gap: no E facts and no stored E.
TEST_F(PlannerTest, MissingRelationReverseBoundMatchesNaiveEvaluation) {
  auto prog = dl::Parse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    l(1, 2). r(5, 6).
    p(X, 6)?
  )");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto report = SolveProgram(&db_, *prog);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
  std::vector<Value> answers;
  for (const Tuple& t : report->results) answers.push_back(t[0]);

  Database naive_db;
  eval::EvalOptions eopts;
  eopts.seminaive = false;
  eval::Engine engine(&naive_db, eopts);
  ASSERT_TRUE(engine.Run(*prog).ok());
  auto naive = engine.Query(prog->queries[0].goal);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  std::vector<Value> expected;
  for (const Tuple& t : *naive) expected.push_back(t[0]);
  std::sort(answers.begin(), answers.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answers, expected);
}


/// Sorted whole answer tuples of `src` solved on a fresh database.
std::vector<Tuple> SortedAnswers(const std::string& src,
                                 PlannerOptions options,
                                 PlanKind* kind = nullptr) {
  auto prog = dl::Parse(src);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return {};
  Database db;
  auto report = SolveProgram(&db, *prog, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return {};
  if (kind != nullptr) *kind = report->kind;
  std::vector<Tuple> out = report->results;
  std::sort(out.begin(), out.end());
  return out;
}

PlannerOptions WithStrategy(Strategy strategy) {
  PlannerOptions options;
  options.strategy = strategy;
  return options;
}

// Every path returns whole goal tuples: (a, v) for P(a, Y)?, (v, b) for
// P(X, b)?, so the output does not depend on the method.
TEST(PlannerResults, EveryPathReturnsGoalTuples) {
  const std::string program =
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n"
      "l(0,1). l(1,2). e(2,7). e(1,8). r(5,7). r(6,5). r(10,8).\n";
  const std::pair<const char*, std::vector<Tuple>> kGoals[] = {
      {"p(0, Y)?", {Tuple{0, 6}, Tuple{0, 10}}},
      {"p(X, 6)?", {Tuple{0, 6}}},
  };
  for (const auto& [goal, want] : kGoals) {
    SCOPED_TRACE(goal);
    PlanKind kind{};
    EXPECT_EQ(SortedAnswers(program + goal, WithStrategy(Strategy::kSafe),
                            &kind),
              want);
    EXPECT_EQ(kind, PlanKind::kMagicCounting);
    EXPECT_EQ(SortedAnswers(program + goal,
                            WithStrategy(Strategy::kMagicRewrite), &kind),
              want);
    EXPECT_EQ(kind, PlanKind::kMagicSets);
    EXPECT_EQ(SortedAnswers(program + goal,
                            WithStrategy(Strategy::kBottomUp), &kind),
              want);
    EXPECT_EQ(kind, PlanKind::kBottomUp);
  }
}

// A reverse-bound goal over a conjunctive L walks the ladder: the mirrored
// query has R as its prefix and the conjunction as its suffix.
TEST(PlannerResults, ReverseBoundConjunctiveLWalksTheLadder) {
  const char* src = R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, Z), m(Z, X1), p(X1, Y1), r(Y, Y1).
    l(0, 1). m(1, 2). l(2, 3). m(3, 4).
    e(4, 7). e(2, 8). e(0, 9).
    r(5, 7). r(6, 5). r(10, 8).
    p(X, 6)?
  )";
  auto prog = dl::Parse(src);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Database db;
  auto explain = ExplainProgram(&db, *prog, WithStrategy(Strategy::kSafe));
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->kind, PlanKind::kMagicCounting);
  ASSERT_FALSE(explain->attempts.empty());
  EXPECT_EQ(explain->attempts.front().method, "mc/multiple/int");
  EXPECT_EQ(explain->safety.form, analysis::QueryForm::kReverseBound);

  auto report = SolveProgram(&db, *prog, WithStrategy(Strategy::kSafe));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
  ASSERT_FALSE(report->attempts.empty());
  EXPECT_EQ(report->attempts.front().method, "mc/multiple/integrated");
  std::vector<Tuple> answers = report->results;
  std::sort(answers.begin(), answers.end());
  EXPECT_EQ(answers, SortedAnswers(src, WithStrategy(Strategy::kBottomUp)));
  EXPECT_EQ(answers, (std::vector<Tuple>{Tuple{0, 6}}));
}

// A stored relation used at another arity stops explain and solve at the
// analysis, with the same E101 message.
TEST_F(PlannerTest, StoredArityMismatchStopsExplainAndSolve) {
  db_.GetOrCreateRelation("l", 3)->Insert(Tuple{0, 1, 2});
  auto prog = dl::Parse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, Z), m(Z, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto explain = ExplainProgram(&db_, *prog);
  auto solve = SolveProgram(&db_, *prog);
  ASSERT_FALSE(explain.ok());
  ASSERT_FALSE(solve.ok());
  EXPECT_EQ(explain.status().ToString(), solve.status().ToString());
  EXPECT_NE(solve.status().message().find(
                "relation 'l' is stored with arity 3, the program uses it "
                "with arity 2"),
            std::string::npos)
      << solve.status().ToString();
  EXPECT_EQ(solve.status().code(), StatusCode::kInvalidArgument);
}

// An affine recursive head has no valid magic rewriting: the analysis
// decides so once, and explain and solve both go straight to bottom-up.
TEST_F(PlannerTest, InvalidMagicRewriteGoesStraightToBottomUp) {
  auto prog = dl::Parse("n(0). n(X+1) :- n(X), X < 10. n(5)?");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto explain = ExplainProgram(&db_, *prog);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->kind, PlanKind::kBottomUp);

  auto report = SolveProgram(&db_, *prog);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kBottomUp);
  ASSERT_EQ(report->attempts.size(), 1u);
  EXPECT_EQ(report->attempts[0].method, "bottom_up");
  EXPECT_TRUE(report->attempts[0].status.ok());
  EXPECT_EQ(report->results, (std::vector<Tuple>{Tuple{5}}));
}

}  // namespace
}  // namespace mcm::core
