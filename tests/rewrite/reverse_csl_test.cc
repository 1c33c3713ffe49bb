// Reverse-bound CSL queries P(X, b)? — the mirrored application of the
// methods (the binding enters through the second argument, so L and R swap
// roles and E's columns flip). RecognizeStronglyLinear returns the mirrored
// form with `reverse` set; MaterializeStronglyLinear composes the swapped E.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/planner.h"
#include "datalog/parser.h"
#include "rewrite/strongly_linear.h"
#include "workload/generators.h"

namespace mcm::rewrite {
namespace {

constexpr const char* kCslRules = R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
)";

Result<StronglyLinearQuery> Recognize(const std::string& goal) {
  auto prog = dl::Parse(std::string(kCslRules) + goal);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return RecognizeStronglyLinear(*prog);
}

TEST(ReverseCsl, RecognizesMirroredSignature) {
  auto slq = Recognize("p(X, 42)?");
  ASSERT_TRUE(slq.ok()) << slq.status().ToString();
  EXPECT_TRUE(slq->reverse);
  EXPECT_EQ(slq->source.value, 42);
  EXPECT_EQ(slq->answer_var, "X");
  // R carries the binding: it is the mirrored prefix, L the suffix.
  ASSERT_TRUE(slq->prefix_is_atom);
  ASSERT_TRUE(slq->suffix_is_atom);
  EXPECT_EQ(slq->prefix[0].atom.predicate, "r");
  EXPECT_EQ(slq->suffix[0].atom.predicate, "l");
  // e(X, Y) read from Y to X is not canonical: E is a composition.
  EXPECT_FALSE(slq->exit_is_atom);
  EXPECT_EQ(slq->ToString(), "SL{P=p |prefix|=1 |suffix|=1 |exit|=1 b=42}");
}

TEST(ReverseCsl, ForwardBoundGoalIsNotMirrored) {
  auto slq = Recognize("p(42, Y)?");
  ASSERT_TRUE(slq.ok()) << slq.status().ToString();
  EXPECT_FALSE(slq->reverse);
  EXPECT_EQ(slq->ToString(), "CSL{P=p E=e L=l R=r a=42}");
  // Both arguments bound, or neither, is not a strongly linear goal.
  EXPECT_FALSE(Recognize("p(1, 42)?").ok());
  EXPECT_FALSE(Recognize("p(X, Y)?").ok());
}

TEST(ReverseCsl, MaterializeSwappedE) {
  auto slq = Recognize("p(X, 42)?");
  ASSERT_TRUE(slq.ok()) << slq.status().ToString();
  Database db;
  Relation* e = db.GetOrCreateRelation("e", 2);
  e->Insert2(1, 10);
  e->Insert2(2, 20);
  // A composition left by an earlier call is refreshed, not appended to.
  db.GetOrCreateRelation("mcm_estar", 2)->Insert2(7, 7);
  auto csl = MaterializeStronglyLinear(&db, *slq);
  ASSERT_TRUE(csl.ok()) << csl.status().ToString();
  EXPECT_EQ(csl->l, "r");
  EXPECT_EQ(csl->r, "l");
  EXPECT_EQ(csl->e, "mcm_estar");
  Relation* swapped = db.Find("mcm_estar");
  ASSERT_NE(swapped, nullptr);
  EXPECT_EQ(swapped->size(), 2u);
  EXPECT_TRUE(swapped->Contains(Tuple{10, 1}));
  EXPECT_TRUE(swapped->Contains(Tuple{20, 2}));
}

// The planner must answer P(X, b) through magic counting and agree with
// bottom-up evaluation.
TEST(ReverseCsl, PlannerEndToEnd) {
  workload::CslData data = workload::MakeSameGeneration(40, 2, 1234);
  const char* src = R"(
    sg(X, Y) :- eq(X, Y).
    sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
    sg(X, 0)?
  )";
  auto prog = dl::Parse(src);
  ASSERT_TRUE(prog.ok());

  auto answers_of = [&](core::PlannerOptions options) {
    Database db;
    data.Load(&db, "parent", "eq", "parent");
    auto report = core::SolveProgram(&db, *prog, options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::vector<Value> out;
    if (report.ok()) {
      for (const Tuple& t : report->results) out.push_back(t[0]);
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    return std::make_pair(out, report.ok() ? report->kind
                                           : core::PlanKind::kBottomUp);
  };

  core::PlannerOptions bottom_up;
  bottom_up.strategy = core::Strategy::kBottomUp;
  auto [ref, ref_kind] = answers_of(bottom_up);
  ASSERT_FALSE(ref.empty());

  auto [mc, mc_kind] = answers_of(core::PlannerOptions{});
  EXPECT_EQ(mc_kind, core::PlanKind::kMagicCounting);
  EXPECT_EQ(mc, ref);
}

// Same-generation is symmetric (sg(x,y) <=> sg(y,x) when L = R and E is
// the identity), so the reverse query from person 0 must return the same
// set as the forward one.
TEST(ReverseCsl, SymmetricWorkloadMatchesForward) {
  workload::CslData data = workload::MakeSameGeneration(40, 2, 777);
  // Each query's answers sit in its goal's free column.
  auto run = [&](const char* src, size_t free_col) {
    Database db;
    data.Load(&db, "parent", "eq", "parent");
    auto prog = dl::Parse(src);
    EXPECT_TRUE(prog.ok());
    auto report = core::SolveProgram(&db, *prog);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report->kind, core::PlanKind::kMagicCounting);
    std::vector<Value> out;
    for (const Tuple& t : report->results) out.push_back(t[free_col]);
    std::sort(out.begin(), out.end());
    return out;
  };
  auto forward = run(
      "sg(X, Y) :- eq(X, Y)."
      "sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP). sg(0, Y)?",
      1);
  auto reverse = run(
      "sg(X, Y) :- eq(X, Y)."
      "sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP). sg(X, 0)?",
      0);
  EXPECT_EQ(forward, reverse);
}

}  // namespace
}  // namespace mcm::rewrite
