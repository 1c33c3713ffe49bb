// Pass 4: static counting-safety analysis (Theorems 1-2, before any
// fixpoint runs).
//
// Classifies the program's query form (canonical / derived strongly linear /
// reverse-bound) from the form analysis::Analyze recognized, builds the
// request's one query graph G_Q — and with it the magic graph G_L — from
// the caller's EDB relations or the program's ground facts, classifies its
// nodes (single / multiple / recurring, Proposition 1), and renders a
// per-method verdict table:
//   * pure counting is unsafe exactly when the magic graph is cyclic — a
//     recurring node has an infinite index set I_b, so condition (b) of
//     Theorem 1 cannot hold for a counting set containing it;
//   * the magic set method is always safe;
//   * every magic counting method (basic/single/multiple/recurring x
//     independent/integrated) is safe on every instance: Step 1 routes the
//     offending nodes to the restricted magic set RM, satisfying the
//     theorems by construction (Proposition 3).
// The cost pass (pass 5) reads the same graph, and the planner reads the
// verdicts: Strategy::kAuto ranks plain counting only on a safe verdict.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "datalog/diagnostic.h"
#include "graph/classify.h"
#include "graph/query_graph.h"
#include "rewrite/strongly_linear.h"
#include "storage/database.h"

namespace mcm::analysis {

enum class Verdict : uint8_t {
  kSafe,     ///< method terminates and is correct on this instance
  kUnsafe,   ///< method diverges (counting-set fixpoint never closes)
  kUnknown,  ///< no EDB statistics, or none for tuples the program adds
};

std::string_view VerdictToString(Verdict v);

/// One row of the verdict table.
struct MethodVerdict {
  std::string method;  ///< "counting", "magic_sets", "mc/basic/ind", ...
  Verdict verdict = Verdict::kUnknown;
  std::string reason;
};

/// How the safety pass classified the query's recursive part.
enum class QueryForm : uint8_t {
  kNotStronglyLinear,  ///< outside the paper's class; no verdicts
  kCanonical,          ///< literal L/E/R shape
  kComposed,           ///< derived/conjunctive L,E,R (strongly linear)
  kReverseBound,       ///< P(X, b)? evaluated via the mirrored signature
};

std::string_view QueryFormToString(QueryForm f);

/// \brief Result of the static counting-safety analysis.
struct CountingSafetyReport {
  QueryForm form = QueryForm::kNotStronglyLinear;
  std::string signature;  ///< CSL signature when recognized ("p over l/e/r")
  std::string l_predicate;  ///< relation whose graph is the magic graph
  /// E/R relation names when they are single atoms; empty when the
  /// component is a composition (a conjunction, or the column swap of a
  /// reverse-bound query's E), which exists only after materialization.
  std::string e_predicate;
  std::string r_predicate;

  /// True when EDB statistics were available and the magic graph was built.
  bool analyzed = false;
  graph::GraphClass graph_class = graph::GraphClass::kRegular;
  size_t magic_nodes = 0;
  size_t magic_arcs = 0;
  size_t single_nodes = 0;
  size_t multiple_nodes = 0;
  size_t recurring_nodes = 0;

  std::vector<MethodVerdict> verdicts;

  /// Methods with an unsafe verdict ("counting", ...).
  std::vector<std::string> UnsafeMethods() const;

  /// Verdict for a named method; kUnknown if the method is not in the table.
  Verdict VerdictFor(const std::string& method) const;

  /// Render the verdict table (aligned columns, one method per row).
  std::string ToString() const;
};

/// \brief The magic graph of one request and the statistics it came from.
///
/// The statistics source is the caller's database when it holds L,
/// otherwise a scratch database of the program's L/E/R facts. The safety
/// pass fills this once per Analyze call; the cost pass only reads it. The
/// relation pointers point into the caller's database or `scratch`, so the
/// value lives on Analyze's stack and never outlives it.
struct MagicGraphFacts {
  Database scratch;
  /// L in the statistics source; null when the scratch database has no L
  /// facts. May be empty or non-binary when the caller stores it so.
  const Relation* l = nullptr;
  /// E and R in the statistics source when binary and non-empty, else null.
  const Relation* e = nullptr;
  const Relation* r = nullptr;
  /// The source holds every tuple L will hold at run time: no rule
  /// derives L, and no program fact adds to an L the caller stores.
  bool whole_l = true;
  /// The query constant occurs in the statistics source's symbols.
  bool source_known = false;
  /// G_Q from `source`, built when L is binary and the constant is known.
  /// It includes the E and R arcs when both `e` and `r` are set, so m_R is
  /// exact then; G_L (magic_graph()) never depends on them.
  std::optional<graph::QueryGraph> graph;
  graph::MagicGraphAnalysis classes;  ///< Proposition 1 classes of G_L
  std::string build_error;            ///< why `graph` is empty after a build

  /// Both E and R went into the build.
  bool full_graph() const { return e != nullptr && r != nullptr; }
};

/// Analyze the query of `program` (the paper's single-query form), whose
/// strongly linear form is `recognized` (nullopt outside the class: the
/// report then stays kNotStronglyLinear), and fill `facts` with its magic
/// graph. `db` supplies EDB statistics and may be null; in-program ground
/// facts are used when `db` lacks the L relation. Appends W401 when pure
/// counting is statically unsafe and N501/N502 notes describing what was
/// (or could not be) decided.
CountingSafetyReport AnalyzeCountingSafety(
    const dl::Program& program,
    const std::optional<rewrite::RecognizedQuery>& recognized,
    const Database* db, MagicGraphFacts* facts, dl::DiagnosticBag* bag);

}  // namespace mcm::analysis
