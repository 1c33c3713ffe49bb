// Differential test over recursive-rule shapes. Every program
//
//   p(X, Y) :- e(X, Y).
//   p(X, Y) :- l(A, B), p(C, D), r(E, F).
//
// with A..F drawn from a small variable pool must get the same answers from
// the planner as from naive evaluation, under a forward-bound goal p(0, Y)?
// and a reverse-bound goal p(X, 0)?. Only the rules whose X, Y, C and D are
// pairwise distinct and whose L and R sides share no variable are in the
// paper's class; every other shape must be left to the generalized magic
// rewrite or to bottom-up evaluation, never answered by a CSL rung.
//
// Paths checked: Strategy::kAuto, kSafe, kCounting and the forced
// mc:single:ind walk on every program RecognizeQuery accepts, and kAuto on
// every other one. On each path ExplainProgram must name the planner path
// SolveProgram takes, and that path must be the CSL ladder exactly when the
// analysis recognized the query. The EDBs are seeded from MCM_FUZZ_SEED
// (storage/fuzz_util.h); MCM_FUZZ_ITERS of 5 or more widens the variable
// pool from four to five variables (the ctest soak profile sets 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "rewrite/strongly_linear.h"
#include "storage/fuzz_util.h"
#include "util/rng.h"

namespace mcm {
namespace {

using Arcs = std::vector<std::pair<Value, Value>>;

/// Binary L, E and R relations over small integers.
struct Edb {
  Arcs l, e, r;

  std::array<std::pair<const char*, const Arcs*>, 3> Named() const {
    return {{{"l", &l}, {"e", &e}, {"r", &r}}};
  }

  void Load(Database* db) const {
    for (const auto& [name, arcs] : Named()) {
      Relation* rel = db->GetOrCreateRelation(name, 2);
      for (const auto& [a, b] : *arcs) rel->Insert2(a, b);
    }
  }

  std::string ToString() const {
    std::string out;
    for (const auto& [name, arcs] : Named()) {
      for (const auto& [a, b] : *arcs) {
        out += std::string(name) + "(" + std::to_string(a) + "," +
               std::to_string(b) + "). ";
      }
    }
    return out;
  }
};

/// Random arcs over the values 0..4; `cyclic` adds a 2-cycle through 0 to
/// both L and R, so the forward and the reverse goal each start on a cycle.
Edb RandomEdb(uint64_t seed, bool cyclic) {
  Rng rng(seed);
  auto arcs = [&rng](size_t count) {
    Arcs out;
    for (size_t i = 0; i < count; ++i) {
      out.emplace_back(rng.NextInRange(0, 4), rng.NextInRange(0, 4));
    }
    return out;
  };
  Edb edb;
  edb.l = arcs(5);
  edb.e = arcs(4);
  edb.r = arcs(5);
  if (cyclic) {
    edb.l.insert(edb.l.end(), {{0, 1}, {1, 0}});
    edb.r.insert(edb.r.end(), {{0, 2}, {2, 0}});
  }
  return edb;
}

/// The six variables of the recursive rule l(A, B), p(C, D), r(E, F).
using Shape = std::array<std::string, 6>;

std::string ProgramText(const Shape& v, const std::string& goal) {
  return "p(X, Y) :- e(X, Y).\n"
         "p(X, Y) :- l(" + v[0] + ", " + v[1] + "), p(" + v[2] + ", " + v[3] +
         "), r(" + v[4] + ", " + v[5] + ").\n" + goal + "\n";
}

constexpr const char* kForward = "p(0, Y)?";
constexpr const char* kReverse = "p(X, 0)?";

/// Every path answers with whole goal tuples; compare them as a set.
std::set<Tuple> AsSet(const std::vector<Tuple>& tuples) {
  return {tuples.begin(), tuples.end()};
}

/// The oracle: naive evaluation of the program. nullopt when the program
/// is rejected (a rule that is not range-restricted).
std::optional<std::set<Tuple>> Naive(const dl::Program& program,
                                     const Edb& edb) {
  Database db;
  edb.Load(&db);
  eval::EvalOptions options;
  options.seminaive = false;
  eval::Engine engine(&db, options);
  if (!engine.Run(program).ok()) return std::nullopt;
  Result<std::vector<Tuple>> tuples = engine.Query(program.queries[0].goal);
  if (!tuples.ok()) return std::nullopt;
  return AsSet(*tuples);
}

struct Path {
  std::string spec;
  core::PlannerOptions options;
};

std::vector<Path> Paths() {
  std::vector<Path> paths;
  for (const char* spec : {"auto", "safe", "counting", "mc:single:ind"}) {
    Path path{spec, {}};
    EXPECT_TRUE(core::ParseMethod(spec, &path.options)) << spec;
    paths.push_back(std::move(path));
  }
  return paths;
}

/// The planner path a report took: "ladder" (a CSL rung), "magic_rewrite"
/// or "bottom_up". An explain report lists the ladder's rungs as its
/// attempts and none for the other two paths.
std::string PathOf(const core::PlanReport& report, bool explained) {
  if (explained) {
    if (!report.attempts.empty()) return "ladder";
    return report.kind == core::PlanKind::kMagicSets ? "magic_rewrite"
                                                     : "bottom_up";
  }
  const std::string& first = report.attempts.front().method;
  return first == "magic_rewrite" || first == "bottom_up" ? first : "ladder";
}

/// Runs the paths on one program and EDB; returns the number of paths
/// that go wrong and reports the first `*report_budget` of them. A path
/// goes wrong when its answers differ from naive evaluation, when
/// ExplainProgram names another planner path than SolveProgram takes, or
/// when SolveProgram walks the CSL ladder and the analysis did not
/// recognize the query, or the other way round.
size_t CountWrongPaths(const std::string& src, const Edb& edb,
                       int* report_budget) {
  Result<dl::Program> program = dl::Parse(src);
  EXPECT_TRUE(program.ok()) << src << program.status().ToString();
  if (!program.ok()) return 1;
  std::optional<std::set<Tuple>> want = Naive(*program, edb);
  if (!want.has_value()) return 0;  // not a valid program
  // The strategies differ only on the strongly linear path. A program
  // RecognizeQuery rejects takes the same magic rewrite under each, so it
  // runs under kAuto alone.
  std::vector<Path> paths = Paths();
  if (!rewrite::RecognizeQuery(*program).ok()) paths.resize(1);
  size_t wrong = 0;
  for (const Path& path : paths) {
    Database db;
    edb.Load(&db);
    Result<core::PlanReport> plan =
        core::ExplainProgram(&db, *program, path.options);
    Result<core::PlanReport> report =
        core::SolveProgram(&db, *program, path.options);
    std::string problem;
    if (!report.ok()) {
      problem = "solve failed: " + report.status().ToString();
    } else if (AsSet(report->results) != *want) {
      problem = "disagrees with naive evaluation: " + report->description;
    } else if (!plan.ok()) {
      problem = "explain failed: " + plan.status().ToString();
    } else if (PathOf(*plan, true) != PathOf(*report, false)) {
      problem = "explain names the " + PathOf(*plan, true) +
                " path, solve takes " + PathOf(*report, false) + ": " +
                report->description;
    } else if ((plan->safety.form != analysis::QueryForm::kNotStronglyLinear) !=
               (PathOf(*report, false) == "ladder")) {
      problem = "the analysis classifies the query as " +
                std::string(analysis::QueryFormToString(plan->safety.form)) +
                ", solve takes " + PathOf(*report, false);
    }
    if (problem.empty()) continue;
    ++wrong;
    if (*report_budget > 0) {
      --*report_budget;
      ADD_FAILURE() << "--method " << path.spec << " on\n"
                    << src << "over " << edb.ToString() << "\n"
                    << problem;
    }
  }
  return wrong;
}

/// Every recursive rule over the first `pool` variables of X, Y, U, V, W.
std::vector<Shape> AllShapes(size_t pool) {
  static const char* kVars[] = {"X", "Y", "U", "V", "W"};
  std::vector<Shape> shapes;
  size_t total = 1;
  for (int i = 0; i < 6; ++i) total *= pool;
  for (size_t code = 0; code < total; ++code) {
    Shape shape;
    size_t c = code;
    for (std::string& v : shape) {
      v = kVars[c % pool];
      c /= pool;
    }
    shapes.push_back(std::move(shape));
  }
  return shapes;
}

size_t PoolSize() { return fuzz::FuzzIters(4) >= 5 ? 5 : 4; }

uint64_t EdbSeed(uint64_t base) { return base + fuzz::FuzzSeedOffset(); }

// The five variable coincidences of l(X, X1), p(X1, Y1), r(Y, Y1) that a
// CSL rung used to answer as if the variables were distinct.
const Shape kCoincidences[] = {
    {"X", "X", "X", "Y1", "Y", "Y1"},    // X1 = X
    {"X", "X1", "X1", "Y", "Y", "Y"},    // Y1 = Y
    {"X", "Z", "Z", "Z", "Y", "Z"},      // X1 = Y1
    {"X", "Y", "Y", "Y1", "Y", "Y1"},    // X1 = Y
    {"X", "X1", "X1", "X", "Y", "X"},    // Y1 = X
};

TEST(ShapeDifferential, VariableCoincidencesMatchNaiveEvaluation) {
  // The acyclic instance l(0,1), l(1,2) with E and R arcs at both ends,
  // and the same with the cycles 0->1->2->0 in L and 8->5->0->8 in R.
  Edb chain;
  chain.l = {{0, 1}, {1, 2}};
  chain.e = {{2, 2}, {1, 5}, {2, 7}, {0, 0}};
  chain.r = {{3, 1}, {4, 2}, {6, 7}, {8, 5}, {0, 8}};
  Edb cycle = chain;
  cycle.l.push_back({2, 0});
  cycle.r.push_back({5, 0});
  for (const Shape& shape : kCoincidences) {
    for (const char* goal : {kForward, "p(X, 8)?"}) {
      for (const Edb* edb : {&chain, &cycle}) {
        int budget = 1;  // report the first wrong path of each case
        CountWrongPaths(ProgramText(shape, goal), *edb, &budget);
      }
    }
  }
}

TEST(ShapeDifferential, GeneratedRuleShapesMatchNaiveEvaluation) {
  const Edb edbs[] = {RandomEdb(EdbSeed(101), false),
                      RandomEdb(EdbSeed(202), true)};
  int budget = 10;
  size_t wrong = 0;
  size_t programs = 0;
  for (const Shape& shape : AllShapes(PoolSize())) {
    for (const char* goal : {kForward, kReverse}) {
      std::string src = ProgramText(shape, goal);
      for (const Edb& edb : edbs) {
        wrong += CountWrongPaths(src, edb, &budget);
      }
      ++programs;
    }
  }
  EXPECT_EQ(wrong, 0u) << "wrong paths over " << programs
                       << " generated programs";
}

/// The variables on the X side of the rule: X and C, closed under the L
/// and R atoms that touch them. `y_side` starts from Y and D instead.
std::set<std::string> Side(const Shape& v, bool y_side) {
  std::set<std::string> side = {y_side ? "Y" : "X", v[y_side ? 3 : 2]};
  for (bool grew = true; grew;) {
    grew = false;
    for (size_t atom : {0, 4}) {
      if (side.count(v[atom]) + side.count(v[atom + 1]) == 0) continue;
      for (size_t i : {atom, atom + 1}) grew |= side.insert(v[i]).second;
    }
  }
  return side;
}

TEST(ShapeDifferential, RecognizedShapesHaveDistinctVariablesAndSeparateSides) {
  size_t recognized = 0;
  for (const Shape& shape : AllShapes(PoolSize())) {
    for (const char* goal : {kForward, kReverse}) {
      std::string src = ProgramText(shape, goal);
      Result<dl::Program> program = dl::Parse(src);
      ASSERT_TRUE(program.ok()) << src;
      if (!rewrite::RecognizeQuery(*program).ok()) continue;
      ++recognized;
      std::set<std::string> anchors = {"X", "Y", shape[2], shape[3]};
      EXPECT_EQ(anchors.size(), 4u) << "recognized with X, Y, C, D not "
                                       "pairwise distinct:\n"
                                    << src;
      std::set<std::string> x_side = Side(shape, false);
      std::set<std::string> y_side = Side(shape, true);
      EXPECT_TRUE(std::none_of(
          x_side.begin(), x_side.end(),
          [&y_side](const std::string& v) { return y_side.count(v) > 0; }))
          << "recognized with a variable on both sides:\n"
          << src;
    }
  }
  // l(X, U), p(U, V), r(Y, V) and its mirror images are in the class.
  EXPECT_GT(recognized, 0u);
}

}  // namespace
}  // namespace mcm
