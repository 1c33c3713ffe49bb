#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace mcm::analysis {
namespace {

using dl::DiagCode;

AnalysisResult AnalyzeSrc(const std::string& src,
                          const AnalyzeOptions& options = {}) {
  auto prog = dl::Parse(src);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return Analyze(*prog, options);
}

const dl::Diagnostic* Find(const AnalysisResult& r, DiagCode code) {
  for (const dl::Diagnostic& d : r.diagnostics.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

size_t CountCode(const AnalysisResult& r, DiagCode code) {
  size_t n = 0;
  for (const dl::Diagnostic& d : r.diagnostics.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

// --- Pass 1: validation (collect-all, with spans) ---------------------

TEST(AnalyzerValidation, ArityConflictWithSpan) {
  auto r = AnalyzeSrc("p(1).\np(1, 2).\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kArityConflict);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(2, 1));
  EXPECT_FALSE(r.ok());
}

TEST(AnalyzerValidation, ArityExceedsMax) {
  auto r = AnalyzeSrc("w(1, 2, 3, 4, 5, 6, 7, 8, 9).\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kArityExceedsMax);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(1, 1));
}

TEST(AnalyzerValidation, NonGroundFactPointsAtVariable) {
  auto r = AnalyzeSrc("p(X).\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kNonGroundFact);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(1, 3));
}

TEST(AnalyzerValidation, UnboundHeadVarPointsAtVariable) {
  auto r = AnalyzeSrc("p(X, Z) :- q(X).\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kUnboundHeadVar);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(1, 6));
  EXPECT_NE(d->message.find("'Z'"), std::string::npos);
}

TEST(AnalyzerValidation, FlounderingNegationPointsAtVariable) {
  auto r = AnalyzeSrc("p(X) :- q(X), not r(Z).\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kUnboundNegatedVar);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(1, 21));
}

TEST(AnalyzerValidation, UnboundComparisonPointsAtOperand) {
  auto r = AnalyzeSrc("p(X) :- q(X), Z < 3.\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kUnboundComparisonVar);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(1, 15));
}

TEST(AnalyzerValidation, UnboundAffineBase) {
  auto r = AnalyzeSrc("cs(J+1, X) :- q(X).\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kUnboundAffineBase);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(1, 4));
}

TEST(AnalyzerValidation, AffineInQuery) {
  auto r = AnalyzeSrc("p(J, X) :- q(J, X).\np(J+1, X)?\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kAffineInQuery);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(2, 3));
}

TEST(AnalyzerValidation, CollectsEveryErrorNotJustTheFirst) {
  auto r = AnalyzeSrc("p(X).\nq(Y, W) :- r(Y).\ns(Z) :- t(Z), not u(V).\n");
  EXPECT_EQ(CountCode(r, DiagCode::kNonGroundFact), 1u);
  EXPECT_EQ(CountCode(r, DiagCode::kUnboundHeadVar), 1u);
  EXPECT_EQ(CountCode(r, DiagCode::kUnboundNegatedVar), 1u);
  EXPECT_EQ(r.diagnostics.error_count(), 3u);
}

TEST(AnalyzerValidation, DiagnosticsSortedBySourcePosition) {
  auto r = AnalyzeSrc("q(Y, W) :- r(Y).\np(X).\n");
  // The fact error (line 2) must come after the head error (line 1) even
  // though validation visits rules before facts in no particular order.
  std::vector<dl::Span> spans;
  for (const dl::Diagnostic& d : r.diagnostics.diagnostics()) {
    if (d.severity == dl::Severity::kError) spans.push_back(d.span);
  }
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LT(spans[0].line, spans[1].line);
}

// --- Pass 2: dependency graph -----------------------------------------

TEST(AnalyzerDeps, UndefinedPredicateWhenDatabaseProvided) {
  Database db;
  db.GetOrCreateRelation("e", 2);
  AnalyzeOptions options;
  options.db = &db;
  auto r = AnalyzeSrc("p(X) :- e(X, X), m(X).\np(1)?\n", options);
  const dl::Diagnostic* d = Find(r, DiagCode::kUndefinedPredicate);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'m'"), std::string::npos);
  EXPECT_EQ(d->span, dl::Span::At(1, 18));
  // `e` exists in the database: no warning for it.
  EXPECT_EQ(CountCode(r, DiagCode::kUndefinedPredicate), 1u);
}

TEST(AnalyzerDeps, AssumedEdbNoteWithoutDatabase) {
  auto r = AnalyzeSrc("p(X) :- e(X, X), m(X).\np(1)?\n");
  EXPECT_EQ(CountCode(r, DiagCode::kUndefinedPredicate), 0u);
  const dl::Diagnostic* d = Find(r, DiagCode::kAssumedEdb);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("e, m"), std::string::npos);
}

TEST(AnalyzerDeps, UnusedPredicate) {
  auto r = AnalyzeSrc("p(X) :- q(X).\nr(X) :- q(X).\np(1)?\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kUnusedPredicate);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'r'"), std::string::npos);
  EXPECT_EQ(d->span, dl::Span::At(2, 1));
}

TEST(AnalyzerDeps, UnreachablePredicate) {
  auto r = AnalyzeSrc(
      "p(X) :- q(X).\nr(X) :- s(X).\ns(X) :- r(X).\np(1)?\n");
  // r and s reference each other (so neither is "unused") but the query
  // can never reach them.
  EXPECT_EQ(CountCode(r, DiagCode::kUnreachablePredicate), 2u);
  EXPECT_EQ(CountCode(r, DiagCode::kUnusedPredicate), 0u);
}

TEST(AnalyzerDeps, NegationThroughRecursion) {
  auto r = AnalyzeSrc("p(X) :- q(X), not p(X).\np(1)?\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kNegationCycle);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("depends negatively"), std::string::npos);
  EXPECT_EQ(d->span.line, 1);
}

TEST(AnalyzerDeps, NoQueryMeansEverythingReachable) {
  auto r = AnalyzeSrc("p(X) :- q(X).\nr(X) :- q(X).\n");
  EXPECT_EQ(CountCode(r, DiagCode::kUnusedPredicate), 0u);
  EXPECT_EQ(CountCode(r, DiagCode::kUnreachablePredicate), 0u);
}

TEST(AnalyzerDeps, GraphShapeIsExposed) {
  auto r = AnalyzeSrc("p(X) :- q(X).\np(1)?\n");
  EXPECT_TRUE(r.deps.DependsOn("p", "q"));
  EXPECT_FALSE(r.deps.DependsOn("q", "p"));
  ASSERT_NE(r.deps.IdOf("p"), graph::kInvalidNode);
  EXPECT_TRUE(r.deps.is_idb[r.deps.IdOf("p")]);
  EXPECT_FALSE(r.deps.is_idb[r.deps.IdOf("q")]);
  EXPECT_NE(r.deps.ToString().find("p/1"), std::string::npos);
}

// --- Pass 3: binding / adornment --------------------------------------

TEST(AnalyzerBindings, AllFreeQueryWarns) {
  auto r = AnalyzeSrc(
      "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\ntc(X, Y)?\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kUnboundQuery);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(3, 1));
}

TEST(AnalyzerBindings, BoundQueryGetsSummaryNote) {
  auto r = AnalyzeSrc(
      "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\ntc(1, Y)?\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kBindingSummary);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'bf'"), std::string::npos);
  EXPECT_EQ(CountCode(r, DiagCode::kUnboundQuery), 0u);
}

TEST(AnalyzerBindings, AdornmentFailureWarns) {
  // Goal arity disagrees with the rule head: the adornment pass cannot
  // propagate the pattern (validation flags the arity conflict separately).
  auto r = AnalyzeSrc("p(X, Y) :- q(X, Y).\np(1)?\n");
  const dl::Diagnostic* d = Find(r, DiagCode::kAdornmentFailed);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span, dl::Span::At(2, 1));
  EXPECT_TRUE(r.diagnostics.Has(DiagCode::kArityConflict));
}

TEST(AnalyzerBindings, InvalidMagicRewriteWarns) {
  // The rewriting of an affine head, magic_n__b(X) :- magic_n__b(X+1),
  // leaves X unbound: the pattern does not propagate, and the analysis
  // keeps no rewriting for the planner to run.
  auto r = AnalyzeSrc("n(0). n(X+1) :- n(X), X < 10. n(5)?");
  const dl::Diagnostic* d = Find(r, DiagCode::kAdornmentFailed);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("the rewritten program is invalid"),
            std::string::npos)
      << d->message;
  EXPECT_EQ(CountCode(r, DiagCode::kBindingSummary), 0u);
  EXPECT_FALSE(r.magic.has_value());
  EXPECT_TRUE(r.ok());
}

TEST(AnalyzerBindings, PropagatingPatternKeepsTheRewrite) {
  auto r = AnalyzeSrc(
      "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\ntc(1, Y)?\n");
  EXPECT_EQ(CountCode(r, DiagCode::kBindingSummary), 1u);
  ASSERT_TRUE(r.magic.has_value());
  EXPECT_EQ(r.magic->adorned_goal.predicate, "tc__bf");
}

TEST(AnalyzerBindings, EdbGoalNeedsNoAdornment) {
  // `e` has no rules (assumed to be a stored relation): querying it needs
  // no binding propagation.
  auto r = AnalyzeSrc("e(1, Y)?\n");
  EXPECT_EQ(CountCode(r, DiagCode::kBindingSummary), 0u);
  EXPECT_EQ(CountCode(r, DiagCode::kAdornmentFailed), 0u);
}

// --- Pass 4: counting safety ------------------------------------------

constexpr const char* kCyclicCsl =
    "up(a, b).\n"
    "up(b, c).\n"
    "up(c, a).\n"
    "flat(a, a).\n"
    "sg(X, Y) :- flat(X, Y).\n"
    "sg(X, Y) :- up(X, XP), sg(XP, YP), up(Y, YP).\n"
    "sg(a, Y)?\n";

constexpr const char* kAcyclicCsl =
    "up(a, b).\n"
    "up(b, c).\n"
    "flat(c, c).\n"
    "sg(X, Y) :- flat(X, Y).\n"
    "sg(X, Y) :- up(X, XP), sg(XP, YP), up(Y, YP).\n"
    "sg(a, Y)?\n";

TEST(AnalyzerSafety, CyclicMagicGraphFlagsCountingUnsafe) {
  auto r = AnalyzeSrc(kCyclicCsl);
  EXPECT_TRUE(r.ok());
  const dl::Diagnostic* d = Find(r, DiagCode::kCountingUnsafe);
  ASSERT_NE(d, nullptr);
  // The warning anchors at the recursive rule and names the methods.
  EXPECT_EQ(d->span, dl::Span::At(6, 1));
  EXPECT_NE(d->message.find("counting"), std::string::npos);
  EXPECT_NE(d->message.find("magic_sets"), std::string::npos);

  EXPECT_EQ(r.safety.form, QueryForm::kCanonical);
  EXPECT_TRUE(r.safety.analyzed);
  EXPECT_EQ(r.safety.graph_class, graph::GraphClass::kCyclic);
  EXPECT_EQ(r.safety.l_predicate, "up");
  EXPECT_EQ(r.safety.magic_nodes, 3u);
  EXPECT_EQ(r.safety.recurring_nodes, 3u);
  EXPECT_EQ(r.safety.VerdictFor("counting"), Verdict::kUnsafe);
  EXPECT_EQ(r.safety.VerdictFor("magic_sets"), Verdict::kSafe);
  for (const char* method :
       {"mc/basic/ind", "mc/basic/int", "mc/single/ind", "mc/single/int",
        "mc/multiple/ind", "mc/multiple/int", "mc/recurring/ind",
        "mc/recurring/int"}) {
    EXPECT_EQ(r.safety.VerdictFor(method), Verdict::kSafe) << method;
  }
  EXPECT_EQ(r.safety.UnsafeMethods(), std::vector<std::string>{"counting"});
}

TEST(AnalyzerSafety, AcyclicMagicGraphIsSafeForCounting) {
  auto r = AnalyzeSrc(kAcyclicCsl);
  EXPECT_EQ(CountCode(r, DiagCode::kCountingUnsafe), 0u);
  EXPECT_TRUE(r.safety.analyzed);
  EXPECT_EQ(r.safety.graph_class, graph::GraphClass::kRegular);
  EXPECT_EQ(r.safety.VerdictFor("counting"), Verdict::kSafe);
  const dl::Diagnostic* note = Find(r, DiagCode::kQueryClassCsl);
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->span, dl::Span::At(6, 1));
}

TEST(AnalyzerSafety, EdbStatisticsFromCallerDatabaseWin) {
  // The program's own facts are acyclic, but the loaded relation is cyclic:
  // the caller database takes precedence.
  Database db;
  Relation* up = db.GetOrCreateRelation("up", 2);
  up->Insert2(0, 1);
  up->Insert2(1, 0);
  Relation* flat = db.GetOrCreateRelation("flat", 2);
  flat->Insert2(0, 0);
  AnalyzeOptions options;
  options.db = &db;
  auto r = AnalyzeSrc(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, XP), sg(XP, YP), up(Y, YP).\n"
      "sg(0, Y)?\n",
      options);
  EXPECT_TRUE(r.safety.analyzed);
  EXPECT_EQ(r.safety.graph_class, graph::GraphClass::kCyclic);
  EXPECT_EQ(r.safety.VerdictFor("counting"), Verdict::kUnsafe);
}

TEST(AnalyzerSafety, NoEdbStatsGivesUnknownVerdict) {
  auto r = AnalyzeSrc(
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n"
      "p(0, Y)?\n");
  EXPECT_FALSE(r.safety.analyzed);
  EXPECT_EQ(r.safety.VerdictFor("counting"), Verdict::kUnknown);
  EXPECT_EQ(r.safety.VerdictFor("mc/multiple/int"), Verdict::kSafe);
  const dl::Diagnostic* d = Find(r, DiagCode::kNoEdbStats);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'l'"), std::string::npos);
}

TEST(AnalyzerSafety, SourceAbsentFromDataIsTriviallyRegular) {
  auto r = AnalyzeSrc(
      "up(a, b).\n"
      "flat(a, a).\n"
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, XP), sg(XP, YP), up(Y, YP).\n"
      "sg(zz, Y)?\n");
  EXPECT_TRUE(r.safety.analyzed);
  EXPECT_EQ(r.safety.graph_class, graph::GraphClass::kRegular);
  EXPECT_EQ(r.safety.magic_nodes, 1u);
  EXPECT_EQ(r.safety.VerdictFor("counting"), Verdict::kSafe);
}

TEST(AnalyzerSafety, NonStronglyLinearQueryGetsNoVerdicts) {
  auto r = AnalyzeSrc(
      "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\ntc(1, Y)?\n");
  EXPECT_EQ(r.safety.form, QueryForm::kNotStronglyLinear);
  EXPECT_TRUE(r.safety.verdicts.empty());
  EXPECT_EQ(CountCode(r, DiagCode::kQueryClassCsl), 0u);
}

TEST(AnalyzerSafety, VerdictTableRendersEveryMethod) {
  auto r = AnalyzeSrc(kCyclicCsl);
  std::string table = r.safety.ToString();
  EXPECT_NE(table.find("counting"), std::string::npos);
  EXPECT_NE(table.find("UNSAFE"), std::string::npos);
  EXPECT_NE(table.find("mc/recurring/int"), std::string::npos);
  EXPECT_EQ(r.safety.verdicts.size(), 10u);  // counting + magic + 4x2 mc
}

// --- Pass toggles ------------------------------------------------------

TEST(AnalyzerOptions, PassesCanBeDisabled) {
  // The safety and cost passes (4 and 5) switch off together; their
  // verdict table, cost report and diagnostics all disappear.
  const DiagCode kSafetyAndCostCodes[] = {
      DiagCode::kCountingUnsafe, DiagCode::kQueryClassCsl,
      DiagCode::kNoEdbStats,     DiagCode::kCostEstimate,
      DiagCode::kCostRanking,    DiagCode::kCostUnknown,
  };
  auto on = AnalyzeSrc(kCyclicCsl);
  EXPECT_FALSE(on.safety.verdicts.empty());
  EXPECT_TRUE(on.diagnostics.Has(DiagCode::kCountingUnsafe));

  AnalyzeOptions options;
  options.counting_safety = false;
  auto r = AnalyzeSrc(kCyclicCsl, options);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.safety.verdicts.empty());
  EXPECT_FALSE(r.cost.computed);
  EXPECT_TRUE(r.cost.estimates.empty());
  for (DiagCode code : kSafetyAndCostCodes) {
    EXPECT_EQ(CountCode(r, code), 0u) << dl::DiagCodeToString(code);
  }
}

TEST(AnalyzerOptions, AdvisoryPassesRunDespiteValidationErrors) {
  // One program, two problems: a validation error and a cyclic magic
  // graph. Both must surface in one run.
  std::string src = std::string(kCyclicCsl) + "junk(V).\n";
  auto r = AnalyzeSrc(src);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diagnostics.Has(DiagCode::kNonGroundFact));
  EXPECT_TRUE(r.diagnostics.Has(DiagCode::kCountingUnsafe));
}

}  // namespace
}  // namespace mcm::analysis
