#include "rewrite/magic.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.h"
#include "eval/engine.h"
#include "util/rng.h"

namespace mcm::rewrite {
namespace {

// Evaluate the original program and the magic-rewritten one on the same
// EDB; both must produce the same goal answers.
void ExpectEquivalent(const std::string& src, const std::string& goal_src,
                      const std::function<void(Database*)>& load_edb) {
  auto prog = dl::Parse(src);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto goal = dl::ParseAtom(goal_src);
  ASSERT_TRUE(goal.ok());

  std::vector<Tuple> reference;
  {
    Database db;
    load_edb(&db);
    eval::Engine engine(&db);
    ASSERT_TRUE(engine.Run(*prog).ok());
    auto r = engine.Query(*goal);
    ASSERT_TRUE(r.ok());
    reference = *r;
    std::sort(reference.begin(), reference.end());
  }

  auto magic = MagicRewrite(*prog, *goal);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  {
    Database db;
    load_edb(&db);
    eval::Engine engine(&db);
    Status st = engine.Run(magic->program);
    ASSERT_TRUE(st.ok()) << st.ToString() << "\n"
                         << magic->program.ToString();
    auto r = engine.Query(magic->adorned_goal);
    ASSERT_TRUE(r.ok());
    std::vector<Tuple> rewritten = *r;
    std::sort(rewritten.begin(), rewritten.end());
    EXPECT_EQ(rewritten, reference) << magic->program.ToString();
  }
}

TEST(MagicRewrite, TransitiveClosureBoundFirst) {
  ExpectEquivalent(
      R"(
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
      )",
      "tc(0, Y)", [](Database* db) {
        Relation* e = db->GetOrCreateRelation("e", 2);
        for (int i = 0; i < 10; ++i) e->Insert2(i, i + 1);
        e->Insert2(3, 7);
        e->Insert2(20, 21);  // unreachable from 0
      });
}

TEST(MagicRewrite, MagicSetPrunesIrrelevantFacts) {
  auto prog = dl::Parse(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
  )");
  ASSERT_TRUE(prog.ok());
  auto goal = dl::ParseAtom("tc(0, Y)");
  ASSERT_TRUE(goal.ok());
  auto magic = MagicRewrite(*prog, *goal);
  ASSERT_TRUE(magic.ok());

  Database db;
  Relation* e = db.GetOrCreateRelation("e", 2);
  // A small reachable component and a large irrelevant one.
  e->Insert2(0, 1);
  e->Insert2(1, 2);
  for (int i = 100; i < 200; ++i) e->Insert2(i, i + 1);

  eval::Engine engine(&db);
  ASSERT_TRUE(engine.Run(magic->program).ok());
  // The adorned tc must contain only tuples rooted in the magic set {0,1,2}.
  const Relation* tc = db.Find("tc__bf");
  ASSERT_NE(tc, nullptr);
  for (const Tuple& t : tc->TuplesUnchecked()) {
    EXPECT_LT(t[0], 100);
  }
}

TEST(MagicRewrite, CanonicalQueryMatchesPaperShape) {
  auto prog = dl::Parse(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
  )");
  ASSERT_TRUE(prog.ok());
  auto goal = dl::ParseAtom("p(0, Y)");
  ASSERT_TRUE(goal.ok());
  auto magic = MagicRewrite(*prog, *goal);
  ASSERT_TRUE(magic.ok());

  // Expect: seed fact, magic recursion through l, two guarded modified
  // rules — the shape of the paper's Q_M (its fifth rule, Answer(Y) :-
  // P_M(a, Y), is subsumed here by querying p__bf(0, Y) directly).
  EXPECT_EQ(magic->program.rules.size(), 4u);
  int seeds = 0, magic_rules = 0, modified = 0;
  for (const dl::Rule& r : magic->program.rules) {
    if (r.head.predicate == "magic_p__bf") {
      if (r.IsFact()) {
        ++seeds;
      } else {
        ++magic_rules;
        // magic_p__bf(X1) :- magic_p__bf(X), l(X, X1).
        EXPECT_EQ(r.body.size(), 2u);
      }
    } else if (r.head.predicate == "p__bf") {
      ++modified;
      EXPECT_EQ(r.body[0].atom.predicate, "magic_p__bf");
    }
  }
  EXPECT_EQ(seeds, 1);
  EXPECT_EQ(magic_rules, 1);
  EXPECT_EQ(modified, 2);
}

TEST(MagicRewrite, SameGenerationEquivalence) {
  ExpectEquivalent(
      R"(
        sg(X, Y) :- eq(X, Y).
        sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
      )",
      "sg(0, Y)", [](Database* db) {
        Relation* par = db->GetOrCreateRelation("par", 2);
        Relation* eq = db->GetOrCreateRelation("eq", 2);
        Rng rng(31);
        for (int x = 0; x < 25; ++x) {
          for (int k = 0; k < 2; ++k) {
            int p = x + 1 + static_cast<int>(rng.NextIndex(25 - x));
            if (p <= 25) par->Insert2(x, p);
          }
          eq->Insert2(x, x);
        }
      });
}

TEST(MagicRewrite, MultiPredicateProgram) {
  ExpectEquivalent(
      R"(
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- par(X, Z), anc(Z, Y).
        cousinish(X, Y) :- anc(X, Z), anc(Y, Z).
      )",
      "cousinish(1, Y)", [](Database* db) {
        Relation* par = db->GetOrCreateRelation("par", 2);
        par->Insert2(1, 3);
        par->Insert2(2, 3);
        par->Insert2(3, 5);
        par->Insert2(4, 5);
        par->Insert2(6, 7);
      });
}

TEST(MagicRewrite, NegationAcrossStrata) {
  ExpectEquivalent(
      R"(
        reach(X) :- start(X).
        reach(Y) :- reach(X), e(X, Y).
        blocked(X) :- bad(X).
        goodreach(X) :- reach(X), not blocked(X).
      )",
      "goodreach(X)", [](Database* db) {
        Relation* start = db->GetOrCreateRelation("start", 1);
        Relation* e = db->GetOrCreateRelation("e", 2);
        Relation* bad = db->GetOrCreateRelation("bad", 1);
        start->Insert(Tuple{0});
        for (int i = 0; i < 6; ++i) e->Insert2(i, i + 1);
        bad->Insert(Tuple{3});
        bad->Insert(Tuple{9});
      });
}

TEST(MagicRewrite, RandomGraphsProperty) {
  Rng rng(171);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 3 + rng.NextIndex(8);
    std::vector<std::pair<Value, Value>> arcs;
    size_t m = rng.NextIndex(2 * n + 1);
    for (size_t k = 0; k < m; ++k) {
      arcs.emplace_back(static_cast<Value>(rng.NextIndex(n)),
                        static_cast<Value>(rng.NextIndex(n)));
    }
    ExpectEquivalent(
        R"(
          tc(X, Y) :- e(X, Y).
          tc(X, Y) :- e(X, Z), tc(Z, Y).
        )",
        "tc(0, Y)", [&arcs](Database* db) {
          Relation* e = db->GetOrCreateRelation("e", 2);
          for (auto [u, v] : arcs) e->Insert2(u, v);
        });
  }
}

TEST(MagicRewrite, CustomPrefix) {
  auto prog = dl::Parse("p(X) :- e(X).");
  ASSERT_TRUE(prog.ok());
  auto goal = dl::ParseAtom("p(1)");
  ASSERT_TRUE(goal.ok());
  MagicOptions options;
  options.magic_prefix = "seed_";
  auto magic = MagicRewrite(*prog, *goal, options);
  ASSERT_TRUE(magic.ok());
  bool found = false;
  for (const dl::Rule& r : magic->program.rules) {
    if (r.head.predicate == "seed_p__b") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MagicRewrite, InvalidRewrittenProgramIsUnsupported) {
  // The affine head turns into magic_n__b(X) :- magic_n__b(X+1), whose
  // head variable X is bound by no positive atom.
  auto prog = dl::Parse("n(0). n(X+1) :- n(X), X < 10.");
  ASSERT_TRUE(prog.ok());
  auto goal = dl::ParseAtom("n(5)");
  ASSERT_TRUE(goal.ok());
  auto magic = MagicRewrite(*prog, *goal);
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.status().code(), StatusCode::kUnsupported)
      << magic.status().ToString();
  EXPECT_NE(magic.status().message().find("magic_n__b"), std::string::npos)
      << magic.status().ToString();
}

}  // namespace
}  // namespace mcm::rewrite
