// Execution-governor coverage: every abort reason, injected into every
// method of the family through the "solver/run" fault site, plus real
// (non-injected) deadline / cancellation / cap aborts in the engine and in
// the direct counting loop.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/direct.h"
#include "core/solver.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "runtime/execution_context.h"
#include "util/fault_injection.h"
#include "workload/generators.h"

namespace mcm::core {
namespace {

/// Dispatch a method by its AllMethodNames() name.
Result<MethodRun> RunByName(CslSolver& solver, const std::string& name,
                            const RunOptions& options = {}) {
  if (name == "counting") return solver.RunCounting(options);
  if (name == "magic_sets") return solver.RunMagicSets(options);
  // "mc/<variant>/<mode>"
  size_t s1 = name.find('/');
  size_t s2 = name.find('/', s1 + 1);
  std::string v = name.substr(s1 + 1, s2 - s1 - 1);
  std::string m = name.substr(s2 + 1);
  McVariant variant = v == "basic"       ? McVariant::kBasic
                      : v == "single"    ? McVariant::kSingle
                      : v == "multiple"  ? McVariant::kMultiple
                      : v == "recurring" ? McVariant::kRecurring
                                         : McVariant::kRecurringSmart;
  McMode mode = m == "independent" ? McMode::kIndependent : McMode::kIntegrated;
  return solver.RunMagicCounting(variant, mode, options);
}

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CslData data = workload::MakeFigure1Style();
    data.Load(&db_);
    solver_ = std::make_unique<CslSolver>(&db_, "l", "e", "r", data.source);
  }
  void TearDown() override { util::FaultInjection::Instance().DisarmAll(); }

  Database db_;
  std::unique_ptr<CslSolver> solver_;
};

// --- Injected aborts: every reason x every method of the family. ---

struct InjectedAbort {
  Status status;
  runtime::AbortReason reason;
};

std::vector<InjectedAbort> AllInjectedAborts() {
  return {
      {Status::DeadlineExceeded("injected deadline"),
       runtime::AbortReason::kDeadlineExceeded},
      {Status::Cancelled("injected cancel"), runtime::AbortReason::kCancelled},
      {Status::Unsafe("injected: iteration cap"),
       runtime::AbortReason::kIterationCap},
      {Status::Unsafe("injected: tuple cap"), runtime::AbortReason::kTupleCap},
      {Status::Unsafe("injected: memory budget"),
       runtime::AbortReason::kMemoryBudget},
  };
}

TEST_F(GovernorTest, EveryAbortReasonInEveryMethod) {
  for (const std::string& method : CslSolver::AllMethodNames()) {
    // Sanity: ungoverned run succeeds on this (safe, acyclic) instance.
    ASSERT_TRUE(RunByName(*solver_, method).ok()) << method;
    for (const InjectedAbort& abort : AllInjectedAborts()) {
      util::FaultInjection::Instance().Arm("solver/run", abort.status);
      auto run = RunByName(*solver_, method);
      ASSERT_FALSE(run.ok()) << method;
      EXPECT_EQ(run.status().code(), abort.status.code()) << method;
      EXPECT_EQ(runtime::ClassifyAbort(run.status()), abort.reason) << method;
      // The injected failure consumed the armed site; the method works again.
      auto retry = RunByName(*solver_, method);
      ASSERT_TRUE(retry.ok()) << method;
    }
  }
}

// --- Real (non-injected) aborts in the engine-based methods. ---

TEST_F(GovernorTest, ExpiredDeadlineStopsEveryMethod) {
  runtime::ExecutionContext ctx;
  ctx.SetDeadline(runtime::ExecutionContext::Clock::now() -
                  std::chrono::milliseconds(1));
  RunOptions options;
  options.context = &ctx;
  for (const std::string& method : CslSolver::AllMethodNames()) {
    auto run = RunByName(*solver_, method, options);
    ASSERT_FALSE(run.ok()) << method;
    EXPECT_TRUE(run.status().IsDeadlineExceeded())
        << method << ": " << run.status().ToString();
  }
}

TEST_F(GovernorTest, CancelledTokenStopsEveryMethod) {
  runtime::ExecutionContext ctx;
  auto token = std::make_shared<runtime::CancellationToken>();
  token->Cancel();
  ctx.set_cancellation(token);
  RunOptions options;
  options.context = &ctx;
  for (const std::string& method : CslSolver::AllMethodNames()) {
    auto run = RunByName(*solver_, method, options);
    ASSERT_FALSE(run.ok()) << method;
    EXPECT_TRUE(run.status().IsCancelled())
        << method << ": " << run.status().ToString();
  }
}

TEST_F(GovernorTest, RealDivergenceTripsIterationCap) {
  Database db;
  workload::CslData cyclic;
  cyclic.l = {{0, 1}, {1, 0}};
  cyclic.e = {{0, 100}, {1, 101}};
  cyclic.r = {{100, 101}};
  cyclic.Load(&db);
  CslSolver solver(&db, "l", "e", "r", 0);
  auto run = solver.RunCounting();
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsUnsafe());
  EXPECT_EQ(runtime::ClassifyAbort(run.status()),
            runtime::AbortReason::kIterationCap);
  // Satellite 3: the cap-trip message names the tripped stratum.
  EXPECT_NE(run.status().message().find("stratum"), std::string::npos)
      << run.status().ToString();
}

TEST_F(GovernorTest, TinyMemoryBudgetTripsEveryEngineMethod) {
  RunOptions options;
  options.max_memory_bytes = 1;  // nothing fits
  for (const std::string& method : CslSolver::AllMethodNames()) {
    auto run = RunByName(*solver_, method, options);
    ASSERT_FALSE(run.ok()) << method;
    EXPECT_EQ(runtime::ClassifyAbort(run.status()),
              runtime::AbortReason::kMemoryBudget)
        << method << ": " << run.status().ToString();
  }
}

TEST_F(GovernorTest, TinyTupleCapTrips) {
  RunOptions options;
  options.max_tuples = 1;
  auto run = solver_->RunMagicSets(options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(runtime::ClassifyAbort(run.status()),
            runtime::AbortReason::kTupleCap)
      << run.status().ToString();
}

// --- Engine-level structured abort info. ---

TEST(EngineGovernorTest, AbortInfoIsRecorded) {
  Database db;
  Relation* e = db.GetOrCreateRelation("e", 2);
  for (int i = 0; i < 20; ++i) e->Insert2(i, i + 1);
  auto prog = dl::Parse(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
  )");
  ASSERT_TRUE(prog.ok());
  eval::EvalOptions options;
  options.max_iterations = 2;  // the 20-chain needs ~20 rounds
  eval::Engine engine(&db, options);
  Status st = engine.Run(*prog);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnsafe());
  EXPECT_EQ(engine.info().abort_reason, runtime::AbortReason::kIterationCap);
  EXPECT_NE(st.message().find("recursive stratum"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("tc"), std::string::npos) << st.ToString();
}

TEST(EngineGovernorTest, HottestRuleNamedWhenProfiling) {
  Database db;
  Relation* e = db.GetOrCreateRelation("e", 2);
  for (int i = 0; i < 20; ++i) e->Insert2(i, i + 1);
  auto prog = dl::Parse(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
  )");
  ASSERT_TRUE(prog.ok());
  eval::EvalOptions options;
  options.max_iterations = 2;
  options.profile = true;
  eval::Engine engine(&db, options);
  Status st = engine.Run(*prog);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("hottest rule"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(engine.info().abort_rule.empty());
}

TEST(EngineGovernorTest, DeadlineAbortCarriesReason) {
  Database db;
  Relation* e = db.GetOrCreateRelation("e", 2);
  e->Insert2(0, 1);
  auto prog = dl::Parse(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
  )");
  ASSERT_TRUE(prog.ok());
  runtime::ExecutionContext ctx;
  ctx.SetDeadline(runtime::ExecutionContext::Clock::now() -
                  std::chrono::milliseconds(1));
  eval::EvalOptions options;
  options.context = &ctx;
  eval::Engine engine(&db, options);
  Status st = engine.Run(*prog);
  ASSERT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_EQ(engine.info().abort_reason,
            runtime::AbortReason::kDeadlineExceeded);
}

// --- Direct (engine-free) counting loop. ---

class DirectGovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CslData cyclic;
    cyclic.l = {{0, 1}, {1, 0}};
    cyclic.e = {{0, 100}, {1, 101}};
    cyclic.r = {{100, 101}};
    cyclic.Load(&db_);
  }
  Database db_;
};

TEST_F(DirectGovernorTest, LevelCapTripsOnCyclicData) {
  auto run = DirectCounting(&db_, "l", "e", "r", 0);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(runtime::ClassifyAbort(run.status()),
            runtime::AbortReason::kIterationCap)
      << run.status().ToString();
}

TEST_F(DirectGovernorTest, ExpiredDeadlineAborts) {
  runtime::ExecutionContext ctx;
  ctx.SetDeadline(runtime::ExecutionContext::Clock::now() -
                  std::chrono::milliseconds(1));
  RunOptions options;
  options.context = &ctx;
  auto run = DirectCounting(&db_, "l", "e", "r", 0, options);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsDeadlineExceeded()) << run.status().ToString();
}

TEST_F(DirectGovernorTest, CancelledTokenAborts) {
  runtime::ExecutionContext ctx;
  auto token = std::make_shared<runtime::CancellationToken>();
  token->Cancel();
  ctx.set_cancellation(token);
  RunOptions options;
  options.context = &ctx;
  auto run = DirectCounting(&db_, "l", "e", "r", 0, options);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsCancelled()) << run.status().ToString();
}

TEST_F(DirectGovernorTest, TupleCapAndMemoryBudgetTrip) {
  RunOptions tuples;
  tuples.max_tuples = 1;
  auto run = DirectCounting(&db_, "l", "e", "r", 0, tuples);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(runtime::ClassifyAbort(run.status()),
            runtime::AbortReason::kTupleCap)
      << run.status().ToString();

  RunOptions memory;
  memory.max_memory_bytes = 1;
  run = DirectCounting(&db_, "l", "e", "r", 0, memory);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(runtime::ClassifyAbort(run.status()),
            runtime::AbortReason::kMemoryBudget)
      << run.status().ToString();
}

TEST_F(DirectGovernorTest, CancelFromAnotherThreadStopsDivergentRun) {
  // Lift the iteration cap so this divergent counting fixpoint ends *only*
  // through cancellation — polled at round granularity, requested from a
  // second thread (the case the ThreadSanitizer job watches).
  runtime::ExecutionContext ctx;
  auto token = std::make_shared<runtime::CancellationToken>();
  ctx.set_cancellation(token);
  RunOptions options;
  options.context = &ctx;
  options.max_iterations = ~0ull;
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token->Cancel();
  });
  auto run = DirectCounting(&db_, "l", "e", "r", 0, options);
  canceller.join();
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsCancelled()) << run.status().ToString();
}

TEST_F(DirectGovernorTest, MagicSetsStaysSafeOnCyclicData) {
  auto run = DirectMagicSets(&db_, "l", "e", "r", 0);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->answers.empty());
}

}  // namespace
}  // namespace mcm::core
