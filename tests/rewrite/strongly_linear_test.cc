#include "rewrite/strongly_linear.h"

#include <gtest/gtest.h>

#include "core/planner.h"
#include "datalog/parser.h"

namespace mcm::rewrite {
namespace {

Result<StronglyLinearQuery> Recognize(const std::string& src) {
  auto prog = dl::Parse(src);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return RecognizeStronglyLinear(*prog);
}

TEST(RecognizeSl, CanonicalCslIsSpecialCase) {
  auto slq = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  ASSERT_TRUE(slq.ok()) << slq.status().ToString();
  EXPECT_TRUE(slq->prefix_is_atom);
  EXPECT_TRUE(slq->suffix_is_atom);
  EXPECT_TRUE(slq->exit_is_atom);
}

TEST(RecognizeSl, TwoHopPrefix) {
  auto slq = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- up(X, Z), up(Z, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  ASSERT_TRUE(slq.ok()) << slq.status().ToString();
  EXPECT_EQ(slq->prefix.size(), 2u);
  EXPECT_FALSE(slq->prefix_is_atom);
  EXPECT_TRUE(slq->suffix_is_atom);
}

TEST(RecognizeSl, ConjunctiveSuffixWithGuard) {
  auto slq = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), down(Y, W), down2(W, Y1), Y != W.
    p(a, Y)?
  )");
  ASSERT_TRUE(slq.ok()) << slq.status().ToString();
  EXPECT_EQ(slq->suffix.size(), 3u);  // two atoms + the comparison
}

TEST(RecognizeSl, ComplexExitBody) {
  auto slq = Recognize(R"(
    p(X, Y) :- base(X, W), link(W, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  ASSERT_TRUE(slq.ok());
  EXPECT_FALSE(slq->exit_is_atom);
  EXPECT_EQ(slq->exit_body.size(), 2u);
}

TEST(RecognizeSl, RejectsSharedVariableAcrossSides) {
  auto slq = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1, W), p(X1, Y1), r(Y, Y1, W).
    p(a, Y)?
  )");
  EXPECT_FALSE(slq.ok());
}

TEST(RecognizeSl, RejectsEmptyPrefix) {
  auto slq = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- p(X, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  EXPECT_FALSE(slq.ok());
}

TEST(RecognizeSl, RejectsNonLinear) {
  auto slq = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Z), p(Z, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  EXPECT_FALSE(slq.ok());
}

TEST(RecognizeSl, RejectsDisconnectedLiteral) {
  auto slq = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1), noise(U, V).
    p(a, Y)?
  )");
  EXPECT_FALSE(slq.ok());
}

Result<RecognizedQuery> RecognizeWhole(const std::string& src) {
  auto prog = dl::Parse(src);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return RecognizeQuery(*prog);
}

TEST(RecognizeQuery, OneFormForCanonicalComposedAndReverseBound) {
  auto canonical = RecognizeWhole(R"(
    l(1, 2).
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(1, Y)?
  )");
  ASSERT_TRUE(canonical.ok()) << canonical.status().ToString();
  EXPECT_TRUE(canonical->query.AllAtoms());
  EXPECT_FALSE(canonical->query.reverse);
  EXPECT_EQ(canonical->query.prefix[0].atom.predicate, "l");
  ASSERT_EQ(canonical->support.rules.size(), 1u);  // the l fact
  EXPECT_TRUE(canonical->support.queries.empty());

  auto composed = RecognizeWhole(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- up(X, Z), up(Z, X1), p(X1, Y1), r(Y, Y1).
    p(1, Y)?
  )");
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();
  EXPECT_FALSE(composed->query.AllAtoms());
  EXPECT_FALSE(composed->query.reverse);

  auto reverse = RecognizeWhole(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(X, 6)?
  )");
  ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
  EXPECT_TRUE(reverse->query.reverse);
  EXPECT_EQ(reverse->query.prefix[0].atom.predicate, "r");

  // A reverse-bound goal over a conjunctive L: the conjunction is the
  // mirrored suffix.
  auto reverse_composed = RecognizeWhole(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, Z), m(Z, X1), p(X1, Y1), r(Y, Y1).
    p(X, 6)?
  )");
  ASSERT_TRUE(reverse_composed.ok()) << reverse_composed.status().ToString();
  EXPECT_TRUE(reverse_composed->query.reverse);
  EXPECT_TRUE(reverse_composed->query.prefix_is_atom);
  EXPECT_EQ(reverse_composed->query.suffix.size(), 2u);
}

TEST(RecognizeQuery, RejectsSupportDependingOnTheGoal) {
  EXPECT_FALSE(RecognizeWhole(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    e(X, Y) :- p(Y, X).
    p(1, Y)?
  )").ok());
  EXPECT_FALSE(RecognizeWhole(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- tc(X, Z), tc(Z, Y).
    tc(1, Y)?
  )").ok());
}

TEST(MaterializeSl, TwoHopPrefixComposition) {
  // L is two 'up' hops; the composed l* must contain exactly the 2-paths.
  auto prog = dl::Parse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- up(X, Z), up(Z, X1), p(X1, Y1), r(Y, Y1).
    p(0, Y)?
  )");
  ASSERT_TRUE(prog.ok());
  auto slq = RecognizeStronglyLinear(*prog);
  ASSERT_TRUE(slq.ok());

  Database db;
  Relation* up = db.GetOrCreateRelation("up", 2);
  up->Insert2(0, 1);
  up->Insert2(1, 2);
  up->Insert2(2, 3);
  db.GetOrCreateRelation("e", 2);
  db.GetOrCreateRelation("r", 2);

  auto csl = MaterializeStronglyLinear(&db, *slq);
  ASSERT_TRUE(csl.ok()) << csl.status().ToString();
  EXPECT_EQ(csl->l, "mcm_lstar");
  EXPECT_EQ(csl->e, "e");  // single atoms pass through
  EXPECT_EQ(csl->r, "r");
  Relation* lstar = db.Find("mcm_lstar");
  ASSERT_NE(lstar, nullptr);
  EXPECT_EQ(lstar->size(), 2u);  // (0,2), (1,3)
  EXPECT_TRUE(lstar->Contains(Tuple{0, 2}));
  EXPECT_TRUE(lstar->Contains(Tuple{1, 3}));
}

// End-to-end: the planner answers a two-hop same-generation query (the
// "grandparent generation" query) with magic counting, matching bottom-up.
TEST(MaterializeSl, PlannerEndToEnd) {
  const char* src = R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- up(X, Z), up(Z, X1), p(X1, Y1), down(Y, W), down(W, Y1).
    p(0, Y)?
  )";
  auto prog = dl::Parse(src);
  ASSERT_TRUE(prog.ok());

  auto make_db = [](Database* db) {
    Relation* up = db->GetOrCreateRelation("up", 2);
    Relation* down = db->GetOrCreateRelation("down", 2);
    Relation* e = db->GetOrCreateRelation("e", 2);
    // L chain: 0 ->(2 hops) 2 ->(2 hops) 4.
    for (int i = 0; i < 6; ++i) up->Insert2(i, i + 1);
    // R chains mirrored on 100-.
    for (int i = 0; i < 6; ++i) down->Insert2(100 + i, 101 + i);
    // E links the tops: from L node 4 to R node 104.
    e->Insert2(4, 104);
  };

  std::vector<Value> bottom_up, mc;
  {
    Database db;
    make_db(&db);
    core::PlannerOptions opt;
    opt.strategy = core::Strategy::kBottomUp;
    auto report = core::SolveProgram(&db, *prog, opt);
    ASSERT_TRUE(report.ok());
    for (const Tuple& t : report->results) {
      bottom_up.push_back(t[t.arity() - 1]);
    }
    std::sort(bottom_up.begin(), bottom_up.end());
  }
  {
    Database db;
    make_db(&db);
    auto report = core::SolveProgram(&db, *prog);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->kind, core::PlanKind::kMagicCounting);
    EXPECT_NE(report->description.find("composed"), std::string::npos);
    for (const Tuple& t : report->results) mc.push_back(t[1]);
    std::sort(mc.begin(), mc.end());
  }
  EXPECT_EQ(mc, bottom_up);
  EXPECT_FALSE(mc.empty());
}

}  // namespace
}  // namespace mcm::rewrite
