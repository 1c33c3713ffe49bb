#include "rewrite/csl.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "rewrite/strongly_linear.h"

namespace mcm::rewrite {
namespace {

/// The canonical CslQuery: RecognizeStronglyLinear's forward all-atom
/// case, which MaterializeStronglyLinear turns into a signature without
/// touching the database.
Result<CslQuery> Recognize(const std::string& src) {
  auto prog = dl::Parse(src);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  MCM_ASSIGN_OR_RETURN(StronglyLinearQuery slq,
                       RecognizeStronglyLinear(*prog));
  if (slq.reverse || !slq.AllAtoms()) {
    return Status::Unsupported(slq.ToString());
  }
  Database db;
  return MaterializeStronglyLinear(&db, slq);
}

TEST(RecognizeCsl, CanonicalForm) {
  auto q = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->p, "p");
  EXPECT_EQ(q->e, "e");
  EXPECT_EQ(q->l, "l");
  EXPECT_EQ(q->r, "r");
  EXPECT_EQ(q->source.name, "a");
  EXPECT_EQ(q->answer_var, "Y");
}

TEST(RecognizeCsl, BodyAtomOrderIrrelevant) {
  auto q = Recognize(R"(
    sg(U, V) :- same(U, V).
    sg(U, V) :- up(V, V1), down(U, U1), sg(U1, V1).
    sg(7, V)?
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->l, "down");
  EXPECT_EQ(q->r, "up");
  EXPECT_EQ(q->e, "same");
}

TEST(RecognizeCsl, SameGenerationSharedRelation) {
  auto q = Recognize(R"(
    sg(X, Y) :- eq(X, Y).
    sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
    sg(ann, Y)?
  )");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->l, "par");
  EXPECT_EQ(q->r, "par");
}

TEST(RecognizeCsl, IntegerSource) {
  auto q = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(42, Y)?
  )");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->source.kind, dl::Term::Kind::kInt);
  EXPECT_EQ(q->source.value, 42);
}

TEST(RecognizeCsl, RejectsMissingQuery) {
  EXPECT_FALSE(Recognize("p(X, Y) :- e(X, Y).").ok());
}

TEST(RecognizeCsl, RejectsFreeFirstArgument) {
  EXPECT_FALSE(Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(X, Y)?
  )").ok());
}

TEST(RecognizeCsl, RejectsTwoRecursiveRules) {
  EXPECT_FALSE(Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(X, Y) :- l2(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )").ok());
}

TEST(RecognizeCsl, RejectsExtraPredicateDefinitions) {
  EXPECT_FALSE(Recognize(R"(
    q(1, 2).
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )").ok());
}

TEST(RecognizeCsl, RejectsWrongExitShape) {
  EXPECT_FALSE(Recognize(R"(
    p(X, Y) :- e(Y, X).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )").ok());
}

TEST(RecognizeCsl, RejectsWrongRecursiveShape) {
  // L attaches to the wrong variable.
  EXPECT_FALSE(Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X1, X), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )").ok());
}

TEST(RecognizeCsl, RejectsNonLinearRule) {
  EXPECT_FALSE(Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- p(X, Z), p(Z, Y), r(Y, Y).
    p(a, Y)?
  )").ok());
}

TEST(ResolveSource, InternsSymbols) {
  auto q = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(ann, Y)?
  )");
  ASSERT_TRUE(q.ok());
  Database db;
  Value a = ResolveSource(*q, &db);
  EXPECT_EQ(db.symbols().Resolve(a), "ann");
  EXPECT_EQ(ResolveSource(*q, &db), a);  // stable
}

TEST(ResolveSource, PassesIntegersThrough) {
  CslQuery q;
  q.source = dl::Term::Int(17);
  Database db;
  EXPECT_EQ(ResolveSource(q, &db), 17);
}

}  // namespace
}  // namespace mcm::rewrite
