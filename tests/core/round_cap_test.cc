// The counting rung's divergence guard. With max_iterations 0, plain
// counting (engine and direct paths) stops after n_L rounds (levels),
// n_L being the values reachable from the source over the L the run reads.
// On an acyclic L the cap never fires: every counting index is a path
// length, at most n_L - 1 (Proposition 3). On an L with a reachable cycle
// it fires and names n_L. The methods that cannot diverge get no automatic
// cap: on two coprime cycles the magic-set fixpoint needs ~n_L * n_R
// rounds and still answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/direct.h"
#include "core/planner.h"
#include "core/solver.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "graph/query_graph.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mcm::core {
namespace {

constexpr const char* kCslRules =
    "p(X, Y) :- e(X, Y).\n"
    "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n";

/// Random acyclic L over 0..n-1 with random E and R: every node i > 0 gets
/// one in-arc from a lower node (so all of them are reachable from 0), plus
/// `extra` random lower-to-higher arcs.
workload::LGraph RandomDag(size_t n, size_t extra, Rng* rng) {
  workload::LGraph g;
  g.n = n;
  for (size_t i = 1; i < n; ++i) {
    g.arcs.emplace_back(static_cast<Value>(rng->NextBounded(i)), i);
  }
  for (size_t k = 0; k < extra; ++k) {
    uint64_t a = rng->NextBounded(n - 1);
    uint64_t b = a + 1 + rng->NextBounded(n - 1 - a);
    g.arcs.emplace_back(a, b);
  }
  return g;
}

workload::CslData WithRandomER(const workload::LGraph& g, uint64_t seed) {
  workload::ErSpec er;
  er.kind = workload::ErSpec::Kind::kRandom;
  er.r_nodes = g.n;
  er.r_arcs = 2 * g.n;
  er.seed = seed;
  return workload::AssembleCsl(g, er);
}

/// n_L as the analysis computes it: the nodes of G_L from `a`.
uint64_t MagicNodes(const Database& db, const std::string& l, Value a) {
  Relation none("none", 2);
  auto qg = graph::QueryGraph::Build(*db.Find(l), none, none, a);
  EXPECT_TRUE(qg.ok()) << qg.status().ToString();
  return qg.ok() ? qg->n_l() : 0;
}

/// A trip of the iteration cap whose message names `cap`: the engine says
/// "iteration cap (N)", the direct path "(iteration cap N)".
void ExpectCapTrip(const Status& st, uint64_t cap) {
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnsafe()) << st.ToString();
  EXPECT_EQ(runtime::ClassifyAbort(st), runtime::AbortReason::kIterationCap)
      << st.ToString();
  std::string n = std::to_string(cap);
  EXPECT_TRUE(st.message().find("cap (" + n + ")") != std::string::npos ||
              st.message().find("cap " + n + ")") != std::string::npos)
      << "cap " << n << " not named in: " << st.ToString();
}

TEST(CountingRoundCap, AcyclicLNeverTripsAndMatchesTheReference) {
  Rng rng(20261018);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    size_t n = 2 + rng.NextBounded(40);
    workload::CslData data =
        WithRandomER(RandomDag(n, rng.NextBounded(2 * n), &rng), trial);
    Database db;
    data.Load(&db);
    CslSolver solver(&db, "l", "e", "r", data.source);
    auto ref = solver.RunReference();
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    auto counting = solver.RunCounting();
    ASSERT_TRUE(counting.ok()) << counting.status().ToString();
    EXPECT_EQ(counting->answers, ref->answers);
    auto direct = DirectCounting(&db, "l", "e", "r", data.source);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->answers, ref->answers);
  }
}

TEST(CountingRoundCap, ChainReachesIndexNlMinusOne) {
  // L: 0 -> 1 -> ... -> 49, so n_L = 50 and the one exit, at node 49, sits
  // at index 49 = n_L - 1. R is a chain long enough to descend 49 steps.
  workload::CslData data;
  data.l = workload::MakeChainL(50).arcs;
  data.e = {{49, 1000}};
  for (Value i = 0; i < 60; ++i) data.r.emplace_back(1001 + i, 1000 + i);
  Database db;
  data.Load(&db);
  ASSERT_EQ(MagicNodes(db, "l", 0), 50u);
  CslSolver solver(&db, "l", "e", "r", 0);
  auto counting = solver.RunCounting();
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  EXPECT_EQ(counting->answers, (std::vector<Value>{1049}));
  auto direct = DirectCounting(&db, "l", "e", "r", 0);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->answers, (std::vector<Value>{1049}));
}

TEST(CountingRoundCap, ReachableCycleTripsAtNl) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    size_t n = 2 + rng.NextBounded(40);
    workload::LGraph g = RandomDag(n, rng.NextBounded(n), &rng);
    // Close a cycle: an arc from a random node back to one of its
    // ancestors along the in-arcs RandomDag guarantees (arc i - 1 enters
    // node i), or to itself.
    Value from = static_cast<Value>(rng.NextBounded(n));
    Value to = from;
    for (uint64_t up = rng.NextBounded(n); up > 0 && to > 0; --up) {
      to = g.arcs[to - 1].first;
    }
    g.arcs.emplace_back(from, to);
    // Nodes no query reaches do not move the cap.
    for (Value i = 0; i < 100; ++i) g.arcs.emplace_back(500 + i, 501 + i);
    workload::CslData data = WithRandomER(g, trial);
    Database db;
    data.Load(&db);
    uint64_t n_l = MagicNodes(db, "l", data.source);
    ASSERT_EQ(n_l, n);
    CslSolver solver(&db, "l", "e", "r", data.source);
    ExpectCapTrip(solver.RunCounting().status(), n_l);
    ExpectCapTrip(DirectCounting(&db, "l", "e", "r", data.source).status(),
                  n_l);
  }
}

TEST(CountingRoundCap, ExplicitCapsWinOverNl) {
  workload::CslData chain;
  chain.l = workload::MakeChainL(50).arcs;
  chain.e = {{49, 1000}};
  Database db;
  chain.Load(&db);
  CslSolver solver(&db, "l", "e", "r", 0);
  RunOptions below;
  below.max_iterations = 10;
  ExpectCapTrip(solver.RunCounting(below).status(), 10);
  ExpectCapTrip(DirectCounting(&db, "l", "e", "r", 0, below).status(), 10);

  // ~0 lifts the round cap: on a cycle only the tuple cap stops counting.
  workload::CslData cycle;
  cycle.l = {{0, 1}, {1, 2}, {2, 0}};
  cycle.e = {{0, 100}};
  cycle.r = {{101, 100}};
  Database cyclic_db;
  cycle.Load(&cyclic_db);
  CslSolver cyclic(&cyclic_db, "l", "e", "r", 0);
  RunOptions lifted;
  lifted.max_iterations = ~0ull;
  lifted.max_tuples = 500;
  Status engine = cyclic.RunCounting(lifted).status();
  EXPECT_EQ(runtime::ClassifyAbort(engine), runtime::AbortReason::kTupleCap)
      << engine.ToString();
  Status direct =
      DirectCounting(&cyclic_db, "l", "e", "r", 0, lifted).status();
  EXPECT_EQ(runtime::ClassifyAbort(direct), runtime::AbortReason::kTupleCap)
      << direct.ToString();
}

/// Naive evaluation of `program`'s query p(a, Y) or p(X, b): the oracle.
std::vector<Value> NaiveAnswers(const workload::CslData& data,
                                const dl::Program& program) {
  Database db;
  data.Load(&db);
  eval::EvalOptions eopts;
  eopts.seminaive = false;
  auto tuples = eval::RunProgram(&db, program, eopts);
  EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
  std::vector<Value> out;
  if (!tuples.ok()) return out;
  uint32_t free_col = program.queries[0].goal.args[0].IsConstant() ? 1 : 0;
  for (const Tuple& t : *tuples) out.push_back(t[free_col]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(CountingRoundCap, ReverseBoundWalksTheMirroredL) {
  // P(X, 0)? runs the mirrored query, whose L is the original R walked
  // from 0. The original L is a 41-node chain from 0 that the walk must
  // not read.
  auto program = dl::Parse(std::string(kCslRules) + "p(X, 0)?");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  PlannerOptions options;
  options.strategy = Strategy::kCounting;
  options.allow_fallback = false;

  workload::CslData cyclic_r;
  cyclic_r.l = workload::MakeChainL(41).arcs;
  cyclic_r.e = {{7, 1}};
  cyclic_r.r = {{0, 1}, {1, 2}, {2, 0}};
  Database db;
  cyclic_r.Load(&db);
  ExpectCapTrip(SolveProgram(&db, *program, options).status(), 3);

  // Mirrored L acyclic, original L cyclic: counting answers.
  workload::CslData cyclic_l;
  cyclic_l.l = {{100, 101}, {101, 102}, {102, 100}};
  cyclic_l.e = {{100, 5}};
  cyclic_l.r = workload::MakeChainL(6).arcs;
  Database db2;
  cyclic_l.Load(&db2);
  auto report = SolveProgram(&db2, *program, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->kind, PlanKind::kCounting);
  std::vector<Value> answers;
  for (const Tuple& t : report->results) answers.push_back(t[0]);
  std::vector<Value> oracle = NaiveAnswers(cyclic_l, *program);
  EXPECT_EQ(oracle, (std::vector<Value>{101}));
  EXPECT_EQ(answers, oracle);
}

// L a 31-cycle through 0, R a 37-cycle through 1000, one exit e(0, 1000):
// p(0, Y) holds for Y = 1000 + (31k mod 37), all 37 R-nodes. The magic-set
// fixpoint closes only after ~31 * 37 rounds.
workload::CslData CoprimeCycles() {
  workload::CslData data;
  for (Value i = 0; i < 31; ++i) data.l.emplace_back(i, (i + 1) % 31);
  for (Value i = 0; i < 37; ++i) {
    data.r.emplace_back(1000 + (i + 1) % 37, 1000 + i);
  }
  data.e = {{0, 1000}};
  return data;
}

dl::Program CoprimeProgram() {
  auto program = dl::Parse(std::string(kCslRules) + "p(0, Y)?");
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return *program;
}

TEST(CoprimeCycles, EveryPlannerStrategyAnswers) {
  workload::CslData data = CoprimeCycles();
  dl::Program program = CoprimeProgram();
  std::vector<Value> oracle = NaiveAnswers(data, program);
  ASSERT_EQ(oracle.size(), 37u);
  for (Strategy strategy :
       {Strategy::kAuto, Strategy::kSafe, Strategy::kCounting}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    Database db;
    data.Load(&db);
    PlannerOptions options;
    options.strategy = strategy;
    auto report = SolveProgram(&db, program, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::vector<Value> answers;
    for (const Tuple& t : report->results) answers.push_back(t[1]);
    std::sort(answers.begin(), answers.end());
    EXPECT_EQ(answers, oracle);
  }
}

TEST(CoprimeCycles, MagicSetsAndEveryMcMethodAnswer) {
  workload::CslData data = CoprimeCycles();
  std::vector<Value> oracle = NaiveAnswers(data, CoprimeProgram());
  Database db;
  data.Load(&db);
  CslSolver solver(&db, "l", "e", "r", 0);
  auto magic = solver.RunMagicSets();
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  EXPECT_EQ(magic->answers, oracle);
  for (McVariant variant :
       {McVariant::kBasic, McVariant::kSingle, McVariant::kMultiple,
        McVariant::kRecurring, McVariant::kRecurringSmart}) {
    for (McMode mode : {McMode::kIndependent, McMode::kIntegrated}) {
      SCOPED_TRACE(McVariantToString(variant) + "/" + McModeToString(mode));
      auto run = solver.RunMagicCounting(variant, mode);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->answers, oracle);
    }
  }
}

}  // namespace
}  // namespace mcm::core
