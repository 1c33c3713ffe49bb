// Planner retry-with-degradation: a governed abort in one method walks down
// the Figure 3 hierarchy (counting -> single/multiple/recurring MC -> magic
// sets) until something safe answers the query. Driven both by real
// divergence on cyclic data and by injected faults at the planner tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/planner.h"
#include "core/solver.h"
#include "datalog/parser.h"
#include "runtime/execution_context.h"
#include "util/fault_injection.h"
#include "workload/generators.h"

namespace mcm::core {
namespace {

constexpr const char* kCslSrc = R"(
  p(X, Y) :- e(X, Y).
  p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
  p(0, Y)?
)";

workload::CslData CyclicData() {
  workload::CslData data;
  data.l = {{0, 1}, {1, 0}};
  data.e = {{0, 100}, {1, 101}};
  data.r = {{100, 101}};
  data.source = 0;
  return data;
}

std::vector<Value> AnswerColumn(const std::vector<Tuple>& tuples) {
  std::vector<Value> out;
  for (const Tuple& t : tuples) out.push_back(t[t.arity() - 1]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

class FallbackTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjection::Instance().DisarmAll(); }

  Result<PlanReport> Solve(const std::string& src, PlannerOptions options) {
    auto prog = dl::Parse(src);
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    return SolveProgram(&db_, *prog, options);
  }

  /// Independent ground truth: the original program via the engine's
  /// reference evaluation, on a fresh database with the same data.
  std::vector<Value> ReferenceAnswers(const workload::CslData& data) {
    Database db;
    data.Load(&db);
    CslSolver solver(&db, "l", "e", "r", data.source);
    auto ref = solver.RunReference();
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    return ref->answers;
  }

  Database db_;
};

TEST_F(FallbackTest, RealDivergenceFallsBackAndAnswersMatchReference) {
  workload::CslData data = CyclicData();
  data.Load(&db_);
  PlannerOptions options;
  options.strategy = Strategy::kCounting;  // try it anyway, governed
  auto report = Solve(kCslSrc, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Counting tripped the iteration cap, the next tier answered.
  ASSERT_EQ(report->attempts.size(), 2u);
  EXPECT_EQ(report->attempts[0].method, "counting");
  EXPECT_TRUE(report->attempts[0].status.IsUnsafe());
  EXPECT_EQ(report->attempts[0].abort, runtime::AbortReason::kIterationCap);
  EXPECT_EQ(report->attempts[1].method, "mc/multiple/integrated");
  EXPECT_TRUE(report->attempts[1].status.ok());
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
  EXPECT_NE(report->description.find("degradation ladder"),
            std::string::npos);
  EXPECT_NE(report->description.find("counting"), std::string::npos);

  EXPECT_EQ(AnswerColumn(report->results), ReferenceAnswers(data));
}

TEST_F(FallbackTest, InjectedFaultsWalkTheWholeLadderToMagicSets) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  auto& fi = util::FaultInjection::Instance();
  fi.Arm("planner/counting", Status::Unsafe("injected: iteration cap"));
  fi.Arm("planner/mc/multiple/integrated",
         Status::Unsafe("injected: tuple cap"));
  fi.Arm("planner/mc/recurring/integrated",
         Status::DeadlineExceeded("injected deadline"));

  PlannerOptions options;
  options.strategy = Strategy::kCounting;  // verdict is safe here too
  auto report = Solve(kCslSrc, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kMagicSets);

  ASSERT_EQ(report->attempts.size(), 4u);
  EXPECT_EQ(report->attempts[0].method, "counting");
  EXPECT_EQ(report->attempts[0].abort, runtime::AbortReason::kIterationCap);
  EXPECT_EQ(report->attempts[1].method, "mc/multiple/integrated");
  EXPECT_EQ(report->attempts[1].abort, runtime::AbortReason::kTupleCap);
  EXPECT_EQ(report->attempts[2].method, "mc/recurring/integrated");
  EXPECT_EQ(report->attempts[2].abort,
            runtime::AbortReason::kDeadlineExceeded);
  EXPECT_EQ(report->attempts[3].method, "magic_sets");
  EXPECT_TRUE(report->attempts[3].status.ok());

  EXPECT_EQ(AnswerColumn(report->results), ReferenceAnswers(data));
}

TEST_F(FallbackTest, ConfiguredVariantOnlyDegradesToSaferOnes) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  util::FaultInjection::Instance().Arm(
      "planner/mc/single/integrated", Status::Unsafe("injected: tuple cap"));
  PlannerOptions options;
  options.variant = McVariant::kSingle;  // rank 1: multiple+recurring remain
  auto report = Solve(kCslSrc, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->attempts.size(), 2u);
  EXPECT_EQ(report->attempts[0].method, "mc/single/integrated");
  EXPECT_EQ(report->attempts[1].method, "mc/multiple/integrated");
  EXPECT_EQ(report->kind, PlanKind::kMagicCounting);
}

TEST_F(FallbackTest, NoFallbackReturnsTheAbortAsIs) {
  workload::CslData data = CyclicData();
  data.Load(&db_);
  PlannerOptions options;
  options.strategy = Strategy::kCounting;
  options.allow_fallback = false;
  auto report = Solve(kCslSrc, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnsafe());
  EXPECT_EQ(runtime::ClassifyAbort(report.status()),
            runtime::AbortReason::kIterationCap)
      << report.status().ToString();
}

TEST_F(FallbackTest, NoFallbackWithInjectedFault) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  util::FaultInjection::Instance().Arm(
      "planner/mc/multiple/integrated",
      Status::DeadlineExceeded("injected deadline"));
  PlannerOptions options;
  options.allow_fallback = false;
  auto report = Solve(kCslSrc, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsDeadlineExceeded());
}

TEST_F(FallbackTest, CancellationIsNeverRetried) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  runtime::ExecutionContext ctx;
  auto token = std::make_shared<runtime::CancellationToken>();
  token->Cancel();
  ctx.set_cancellation(token);
  PlannerOptions options;
  options.run.context = &ctx;
  auto report = Solve(kCslSrc, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCancelled()) << report.status().ToString();
  // Exactly one attempt: no ladder walk after an explicit cancel.
  EXPECT_EQ(report.status().message().find("attempts:"), std::string::npos);
}

TEST_F(FallbackTest, LadderExhaustionReportsEveryAttempt) {
  workload::CslData data = workload::MakeFigure1Style();
  data.Load(&db_);
  auto& fi = util::FaultInjection::Instance();
  // Sticky: "solver/run" guards every engine-based method, so each ladder
  // tier fails with a recoverable abort until the ladder runs dry.
  fi.Arm("solver/run", Status::Unsafe("injected: iteration cap"), /*nth=*/1,
         /*sticky=*/true);
  PlannerOptions options;
  options.strategy = Strategy::kCounting;
  auto report = Solve(kCslSrc, options);
  fi.DisarmAll();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnsafe());
  // The folded attempt log names first and last rungs.
  EXPECT_NE(report.status().message().find("attempts:"), std::string::npos)
      << report.status().ToString();
  EXPECT_NE(report.status().message().find("counting:"), std::string::npos);
  EXPECT_NE(report.status().message().find("magic_sets:"), std::string::npos);
}

TEST_F(FallbackTest, InjectedAbortsInEveryDirectionStillLandOnMagicSets) {
  // Each abort reason in turn at the first MC tier; fallback must always
  // recover (cancellation excepted, covered above).
  workload::CslData data = workload::MakeFigure1Style();
  for (Status injected :
       {Status::Unsafe("injected: iteration cap"),
        Status::Unsafe("injected: tuple cap"),
        Status::Unsafe("injected: memory budget"),
        Status::DeadlineExceeded("injected deadline")}) {
    Database db;
    data.Load(&db);
    util::FaultInjection::Instance().Arm("planner/mc/multiple/integrated",
                                         injected);
    auto prog = dl::Parse(kCslSrc);
    ASSERT_TRUE(prog.ok());
    auto report = SolveProgram(&db, *prog, PlannerOptions{});
    ASSERT_TRUE(report.ok())
        << injected.ToString() << " -> " << report.status().ToString();
    EXPECT_GE(report->attempts.size(), 2u);
    EXPECT_EQ(AnswerColumn(report->results), ReferenceAnswers(data));
    util::FaultInjection::Instance().DisarmAll();
  }
}

TEST_F(FallbackTest, BottomUpPathRecordsItsAttempt) {
  Relation* e = db_.GetOrCreateRelation("e", 2);
  e->Insert2(1, 2);
  PlannerOptions options;
  auto report = Solve("tc(X, Y) :- e(X, Y).\ntc(X, Y)?", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kBottomUp);
  ASSERT_EQ(report->attempts.size(), 1u);
  EXPECT_EQ(report->attempts[0].method, "bottom_up");
  EXPECT_TRUE(report->attempts[0].status.ok());
}

TEST_F(FallbackTest, AttemptToStringIsReadable) {
  PlanAttempt ok_attempt;
  ok_attempt.method = "magic_sets";
  ok_attempt.seconds = 0.0012;
  EXPECT_NE(ok_attempt.ToString().find("magic_sets: ok"), std::string::npos);

  PlanAttempt failed;
  failed.method = "counting";
  failed.status = Status::Unsafe("fixpoint exceeded iteration cap (88)");
  failed.abort = runtime::AbortReason::kIterationCap;
  failed.seconds = 0.5;
  std::string s = failed.ToString();
  EXPECT_NE(s.find("counting: Unsafe [iteration_cap]"), std::string::npos)
      << s;
}

}  // namespace
}  // namespace mcm::core
