// Reverse-bound CSL queries P(X, b)? — the mirrored application of the
// methods (the binding enters through the second argument, so L and R swap
// roles and E's columns flip).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/planner.h"
#include "datalog/parser.h"
#include "rewrite/csl.h"
#include "workload/generators.h"

namespace mcm::rewrite {
namespace {

TEST(ReverseCsl, RecognizesMirroredSignature) {
  auto prog = dl::Parse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(X, 42)?
  )");
  ASSERT_TRUE(prog.ok());
  auto rev = RecognizeReverseCsl(*prog, "eswap");
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(rev->csl.l, "r");
  EXPECT_EQ(rev->csl.r, "l");
  EXPECT_EQ(rev->csl.e, "eswap");
  EXPECT_EQ(rev->original_e, "e");
  EXPECT_EQ(rev->csl.source.value, 42);
}

TEST(ReverseCsl, RejectsForwardBoundGoal) {
  auto prog = dl::Parse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(42, Y)?
  )");
  ASSERT_TRUE(prog.ok());
  EXPECT_FALSE(RecognizeReverseCsl(*prog, "eswap").ok());
}

TEST(ReverseCsl, MaterializeSwappedE) {
  Database db;
  Relation* e = db.GetOrCreateRelation("e", 2);
  e->Insert2(1, 10);
  e->Insert2(2, 20);
  ASSERT_TRUE(MaterializeSwappedE(&db, "e", "eswap").ok());
  Relation* swapped = db.Find("eswap");
  ASSERT_NE(swapped, nullptr);
  EXPECT_TRUE(swapped->Contains(Tuple{10, 1}));
  EXPECT_TRUE(swapped->Contains(Tuple{20, 2}));
  EXPECT_FALSE(MaterializeSwappedE(&db, "missing", "x").ok());
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
  auto run = [&](const char* src) {
    Database db;
    data.Load(&db, "parent", "eq", "parent");
    auto prog = dl::Parse(src);
    EXPECT_TRUE(prog.ok());
    auto report = core::SolveProgram(&db, *prog);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report->kind, core::PlanKind::kMagicCounting);
    std::vector<Value> out;
    for (const Tuple& t : report->results) out.push_back(t[0]);
    std::sort(out.begin(), out.end());
    return out;
  };
  auto forward = run(
      "sg(X, Y) :- eq(X, Y)."
      "sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP). sg(0, Y)?");
  auto reverse = run(
      "sg(X, Y) :- eq(X, Y)."
      "sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP). sg(X, 0)?");
  EXPECT_EQ(forward, reverse);
}

}  // namespace
}  // namespace mcm::rewrite
