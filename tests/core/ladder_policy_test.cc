// Golden ladder contract: for every way a caller can pick a method (the
// table rows below) x fallback on/off x four programs, the planner's
// explain ladder, its executed attempt log, the plan kind, the status code
// and the tuples read are pinned byte for byte, and every answer matches
// naive evaluation of the original program. The protocol's method specs
// must land on the same rows.
//
// Programs: a regular tree, an acyclic non-regular layered graph (skip
// arcs), a cyclic layered graph (back arcs: plain counting diverges), and
// non-linear transitive closure (bound, outside the strongly linear class).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/planner.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "service/protocol.h"
#include "util/string_util.h"
#include "workload/generators.h"

namespace mcm::core {
namespace {

/// How a caller asks for a method, one row per ladder shape.
enum class Row {
  kSafe,          ///< "safe", "mc:V:M", the planner default
  kAuto,          ///< "auto": cost ranking, counting only when safe
  kCounting,      ///< "counting": counting under the governor first
  kMagicRewrite,  ///< "magic": skip the strongly linear path
  kBottomUp,      ///< "bottom_up": plain evaluation only
};

const char* RowName(Row row) {
  switch (row) {
    case Row::kSafe:
      return "safe";
    case Row::kAuto:
      return "auto";
    case Row::kCounting:
      return "counting";
    case Row::kMagicRewrite:
      return "magic";
    case Row::kBottomUp:
      return "bottom_up";
  }
  return "?";
}

/// The one place that turns a row into planner options.
PlannerOptions OptionsFor(Row row, bool fallback) {
  PlannerOptions options;
  switch (row) {
    case Row::kSafe:
      options.strategy = Strategy::kSafe;
      break;
    case Row::kAuto:
      options.strategy = Strategy::kAuto;
      break;
    case Row::kCounting:
      options.strategy = Strategy::kCounting;
      break;
    case Row::kMagicRewrite:
      options.strategy = Strategy::kMagicRewrite;
      break;
    case Row::kBottomUp:
      options.strategy = Strategy::kBottomUp;
      break;
  }
  options.allow_fallback = fallback;
  return options;
}

constexpr const char* kCslRules =
    "p(X, Y) :- e(X, Y).\n"
    "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).";
constexpr const char* kTcRules =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), tc(Z, Y).";

struct TestProgram {
  const char* name;
  const char* rules;
  const char* query;
  workload::CslData data;
};

workload::CslData Layered(size_t skip_arcs, size_t back_arcs) {
  workload::LayeredSpec spec;
  spec.layers = 4;
  spec.width = 3;
  spec.skip_arcs = skip_arcs;
  spec.back_arcs = back_arcs;
  spec.bad_start_layer = 1;
  return workload::AssembleCsl(workload::MakeLayeredL(spec), {});
}

std::vector<TestProgram> Programs() {
  workload::CslData chain;
  chain.e = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 2}};
  return {
      {"tree", kCslRules, "p(0, Y)?",
       workload::AssembleCsl(workload::MakeTreeL(2, 3), {})},
      {"skip", kCslRules, "p(0, Y)?", Layered(/*skip_arcs=*/2, 0)},
      {"cyclic", kCslRules, "p(0, Y)?", Layered(0, /*back_arcs=*/2)},
      {"nonlinear_tc", kTcRules, "tc(0, Y)?", chain},
  };
}

dl::Program ParseProgram(const std::string& text) {
  auto program = dl::Parse(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return *program;
}

std::string Source(const TestProgram& p) {
  return std::string(p.rules) + "\n" + p.query;
}

/// "kind: id id ..." — the plan ExplainProgram would run.
std::string DescribeExplain(const TestProgram& p,
                            const PlannerOptions& options) {
  Database db;
  p.data.Load(&db);
  auto report = ExplainProgram(&db, ParseProgram(Source(p)), options);
  if (!report.ok()) return "error " + report.status().ToString();
  std::string out = PlanKindToString(report->kind) + ":";
  for (const PlanAttempt& a : report->attempts) out += " " + a.method;
  return out;
}

/// Sorted distinct last column: the answer values, whatever the arity.
std::vector<Value> LastColumn(const std::vector<Tuple>& tuples) {
  std::vector<Value> out;
  for (const Tuple& t : tuples) out.push_back(t[t.arity() - 1]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The oracle: naive evaluation of the original program.
std::vector<Value> NaiveAnswers(const TestProgram& p) {
  Database db;
  p.data.Load(&db);
  dl::Program program = ParseProgram(Source(p));
  eval::EvalOptions eopts;
  eopts.seminaive = false;
  eval::Engine engine(&db, eopts);
  EXPECT_TRUE(engine.Run(program).ok());
  auto tuples = engine.Query(program.queries[0].goal);
  EXPECT_TRUE(tuples.ok());
  return LastColumn(*tuples);
}

/// "kind status | method:code -> ... | reads N" for a solved plan, or
/// "error code [abort]" when SolveProgram failed. Checks the answers
/// against the naive oracle on the way.
std::string DescribeSolve(const TestProgram& p, const PlannerOptions& options,
                          const std::vector<Value>& oracle) {
  Database db;
  p.data.Load(&db);
  auto report = SolveProgram(&db, ParseProgram(Source(p)), options);
  if (!report.ok()) {
    return "error " +
           std::string(StatusCodeToString(report.status().code())) + " [" +
           std::string(runtime::AbortReasonToString(
               runtime::ClassifyAbort(report.status()))) +
           "]";
  }
  EXPECT_EQ(LastColumn(report->results), oracle);
  std::vector<std::string> attempts;
  for (const PlanAttempt& a : report->attempts) {
    attempts.push_back(a.method + ":" +
                       std::string(StatusCodeToString(a.status.code())));
  }
  return PlanKindToString(report->kind) + " | " + Join(attempts, " -> ") +
         " | reads " + std::to_string(report->stats.tuples_read);
}

struct Golden {
  const char* program;
  Row row;
  bool fallback;
  const char* explain;
  const char* solve;
};

// clang-format off
const Golden kGolden[] = {
    {"tree", Row::kSafe, true,
     "magic_counting: mc/multiple/int mc/recurring/int magic_sets",
     "magic_counting | mc/multiple/integrated:OK | reads 132"},
    {"tree", Row::kSafe, false,
     "magic_counting: mc/multiple/int",
     "magic_counting | mc/multiple/integrated:OK | reads 132"},
    {"tree", Row::kAuto, true,
     "counting: counting mc/basic/int mc/basic/ind mc/single/int mc/single/ind mc/multiple/int mc/multiple/ind mc/recurring/int mc/recurring/ind magic_sets",
     "counting | counting:OK | reads 121"},
    {"tree", Row::kAuto, false,
     "counting: counting",
     "counting | counting:OK | reads 121"},
    {"tree", Row::kCounting, true,
     "counting: counting mc/multiple/int mc/recurring/int magic_sets",
     "counting | counting:OK | reads 121"},
    {"tree", Row::kCounting, false,
     "counting: counting mc/multiple/int",
     "counting | counting:OK | reads 121"},
    {"tree", Row::kMagicRewrite, true,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 173"},
    {"tree", Row::kMagicRewrite, false,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 173"},
    {"tree", Row::kBottomUp, true,
     "bottom_up:",
     "bottom_up | bottom_up:OK | reads 100"},
    {"tree", Row::kBottomUp, false,
     "bottom_up:",
     "bottom_up | bottom_up:OK | reads 100"},
    {"skip", Row::kSafe, true,
     "magic_counting: mc/multiple/int mc/recurring/int magic_sets",
     "magic_counting | mc/multiple/integrated:OK | reads 181"},
    {"skip", Row::kSafe, false,
     "magic_counting: mc/multiple/int",
     "magic_counting | mc/multiple/integrated:OK | reads 181"},
    {"skip", Row::kAuto, true,
     "counting: counting mc/multiple/int mc/recurring/int mc/recurring/ind magic_sets mc/single/int mc/basic/int mc/basic/ind mc/multiple/ind mc/single/ind",
     "counting | counting:OK | reads 173"},
    {"skip", Row::kAuto, false,
     "counting: counting",
     "counting | counting:OK | reads 173"},
    {"skip", Row::kCounting, true,
     "counting: counting mc/multiple/int mc/recurring/int magic_sets",
     "counting | counting:OK | reads 173"},
    {"skip", Row::kCounting, false,
     "counting: counting mc/multiple/int",
     "counting | counting:OK | reads 173"},
    {"skip", Row::kMagicRewrite, true,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 347"},
    {"skip", Row::kMagicRewrite, false,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 347"},
    {"skip", Row::kBottomUp, true,
     "bottom_up:",
     "bottom_up | bottom_up:OK | reads 240"},
    {"skip", Row::kBottomUp, false,
     "bottom_up:",
     "bottom_up | bottom_up:OK | reads 240"},
    {"cyclic", Row::kSafe, true,
     "magic_counting: mc/multiple/int mc/recurring/int magic_sets",
     "magic_counting | mc/multiple/integrated:OK | reads 364"},
    {"cyclic", Row::kSafe, false,
     "magic_counting: mc/multiple/int",
     "magic_counting | mc/multiple/integrated:OK | reads 364"},
    {"cyclic", Row::kAuto, true,
     "magic_sets: magic_sets mc/basic/int mc/basic/ind mc/multiple/ind mc/single/int mc/single/ind mc/multiple/int mc/recurring/ind mc/recurring/int",
     "magic_sets | magic_sets:OK | reads 374"},
    {"cyclic", Row::kAuto, false,
     "magic_sets: magic_sets",
     "magic_sets | magic_sets:OK | reads 374"},
    {"cyclic", Row::kCounting, true,
     "counting: counting mc/multiple/int mc/recurring/int magic_sets",
     "magic_counting | counting:Unsafe -> mc/multiple/integrated:OK | reads 468"},
    {"cyclic", Row::kCounting, false,
     "counting: counting mc/multiple/int",
     "error Unsafe [iteration_cap]"},
    {"cyclic", Row::kMagicRewrite, true,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 365"},
    {"cyclic", Row::kMagicRewrite, false,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 365"},
    {"cyclic", Row::kBottomUp, true,
     "bottom_up:",
     "bottom_up | bottom_up:OK | reads 254"},
    {"cyclic", Row::kBottomUp, false,
     "bottom_up:",
     "bottom_up | bottom_up:OK | reads 254"},
    {"nonlinear_tc", Row::kSafe, true,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 421"},
    {"nonlinear_tc", Row::kSafe, false,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 421"},
    {"nonlinear_tc", Row::kAuto, true,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 421"},
    {"nonlinear_tc", Row::kAuto, false,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 421"},
    {"nonlinear_tc", Row::kCounting, true,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 421"},
    {"nonlinear_tc", Row::kCounting, false,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 421"},
    {"nonlinear_tc", Row::kMagicRewrite, true,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 421"},
    {"nonlinear_tc", Row::kMagicRewrite, false,
     "magic_sets:",
     "magic_sets | magic_rewrite:OK | reads 421"},
    {"nonlinear_tc", Row::kBottomUp, true,
     "bottom_up:",
     "bottom_up | bottom_up:OK | reads 257"},
    {"nonlinear_tc", Row::kBottomUp, false,
     "bottom_up:",
     "bottom_up | bottom_up:OK | reads 257"},
};
// clang-format on

const Golden* Find(const std::string& program, Row row, bool fallback) {
  for (const Golden& g : kGolden) {
    if (g.program == program && g.row == row && g.fallback == fallback) {
      return &g;
    }
  }
  return nullptr;
}

const Row kRows[] = {Row::kSafe, Row::kAuto, Row::kCounting,
                     Row::kMagicRewrite, Row::kBottomUp};

TEST(LadderPolicy, EveryRowMatchesTheGoldenTable) {
  for (const TestProgram& p : Programs()) {
    std::vector<Value> oracle = NaiveAnswers(p);
    ASSERT_FALSE(oracle.empty()) << p.name;
    for (Row row : kRows) {
      for (bool fallback : {true, false}) {
        SCOPED_TRACE(std::string(p.name) + " " + RowName(row) +
                     (fallback ? " fallback" : " no-fallback"));
        PlannerOptions options = OptionsFor(row, fallback);
        std::string explain = DescribeExplain(p, options);
        std::string solve = DescribeSolve(p, options, oracle);
        const Golden* g = Find(p.name, row, fallback);
        if (g == nullptr) {
          ADD_FAILURE() << "no golden row; observed: " << explain << " / "
                        << solve;
          continue;
        }
        EXPECT_EQ(explain, g->explain);
        EXPECT_EQ(solve, g->solve);
      }
    }
  }
}

TEST(LadderPolicy, ProtocolSpecsLandOnTheSameRows) {
  for (const TestProgram& p : Programs()) {
    std::vector<Value> oracle = NaiveAnswers(p);
    for (Row row : {Row::kAuto, Row::kSafe, Row::kCounting}) {
      auto prefixes = service::protocol::ParsePrefixes(p.query);
      ASSERT_TRUE(prefixes.ok()) << prefixes.status().ToString();
      service::QueryRequest req =
          service::protocol::MakeRequest(p.rules, *prefixes, RowName(row));
      EXPECT_EQ(req.program_text, Source(p));
      for (bool fallback : {true, false}) {
        SCOPED_TRACE(std::string(p.name) + " spec " + RowName(row) +
                     (fallback ? " fallback" : " no-fallback"));
        PlannerOptions options = req.planner;
        options.allow_fallback = fallback;
        const Golden* g = Find(p.name, row, fallback);
        ASSERT_NE(g, nullptr);
        EXPECT_EQ(DescribeExplain(p, options), g->explain);
        EXPECT_EQ(DescribeSolve(p, options, oracle), g->solve);
      }
    }
  }
}

}  // namespace
}  // namespace mcm::core
