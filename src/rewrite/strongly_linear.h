// Recognition of (canonical) strongly linear queries beyond the literal
// L/E/R shape.
//
// The paper notes (Section 1) that its results extend to queries where L,
// E and R are conjunctions of database predicates. This module recognizes
// that class:
//
//   query:  P(a, Y)?
//   exit:   P(X, Y) :- <exit body>.
//   rec:    P(X, Y) :- <prefix>, P(Xr, Yr), <suffix>.
//
// where the non-recursive body literals of the recursive rule split into a
// *prefix* component connected (by shared variables) to {X, Xr} and a
// *suffix* component connected to {Y, Yr}, with no variable shared across
// the two components. Under those conditions the query is equivalent to
// the canonical form over the compositions
//   l*(X, Xr)  :- <prefix>.
//   e*(X, Y)   :- <exit body>.
//   r*(Y, Yr)  :- <suffix>.
// which MaterializeStronglyLinear() evaluates into relations so the magic
// counting machinery applies unchanged.
//
// RecognizeStronglyLinear() holds the one set of shape rules: X, Y, Xr and
// Yr must be pairwise distinct, the two components must share no variable,
// and X and Xr must occur as plain variables in a positive prefix atom, Y
// and Yr in a positive suffix atom (dl::Validate's binding rule, so every
// composition is range-restricted). Canonical CSL (csl.h) is its all-atom
// case, where the prefix, the suffix and the exit body are each one binary
// atom in canonical order.
// A rule that breaks them, such as L(X, X1), P(X1, X1), R(Y, X1), is not
// strongly linear and is left to the generalized magic rewrite.
//
// RecognizeQuery() splits a program around its query goal, recognizes the
// strongly linear form once (canonical when all-atom, composed otherwise)
// and else tries the reverse-bound form. analysis::Analyze calls it once per
// program and keeps the result on AnalysisResult::recognized, which the
// safety pass and the planner read.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "datalog/ast.h"
#include "eval/engine.h"
#include "rewrite/csl.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::rewrite {

/// \brief A recognized strongly linear query.
struct StronglyLinearQuery {
  std::string p;
  dl::Term source;
  std::string answer_var;

  std::string x, y;          ///< head variables of the recursive rule
  std::string xr, yr;        ///< arguments of the recursive body atom
  std::string exit_x, exit_y;  ///< head variables of the exit rule

  std::vector<dl::Literal> exit_body;
  std::vector<dl::Literal> prefix;  ///< the L-part conjunction
  std::vector<dl::Literal> suffix;  ///< the R-part conjunction

  /// True when the prefix (resp. suffix / exit body) is a single positive
  /// binary atom in canonical argument order — then no materialization is
  /// needed and the atom's relation is used directly.
  bool prefix_is_atom = false;
  bool suffix_is_atom = false;
  bool exit_is_atom = false;

  /// The canonical CslQuery over the three atoms' relations when the
  /// prefix, the suffix and the exit body are each a single atom; nullopt
  /// when one of them needs materialization.
  std::optional<CslQuery> Canonical() const;

  std::string ToString() const;
};

/// Recognize the strongly linear form of `program` (rules for one
/// predicate plus one query with bound first argument). Canonical CSL
/// queries are its all-atom case.
[[nodiscard]] Result<StronglyLinearQuery> RecognizeStronglyLinear(
    const dl::Program& program);

/// \brief A single-query program whose recursive part has a strongly
/// linear form.
struct RecognizedQuery {
  /// Rules and facts for every predicate but the goal's. They define any
  /// derived L/E/R, so they run before the query.
  dl::Program support;
  /// The form that matched: canonical (literal L/E/R), composed
  /// (conjunctive L/E/R, see MaterializeStronglyLinear) or reverse-bound
  /// (the mirrored forward query over E swapped into "mcm_eswap").
  std::variant<CslQuery, StronglyLinearQuery, ReverseCsl> form;
};

/// Split `program` into its goal predicate's rules and the support rules,
/// then recognize the goal rules as strongly linear (canonical when
/// Canonical() holds, composed otherwise), else as reverse-bound CSL.
/// Unsupported when the program does not have exactly one query, a support
/// rule depends on the goal predicate, or no form matches.
[[nodiscard]] Result<RecognizedQuery> RecognizeQuery(
    const dl::Program& program);

/// Names used for materialized composition relations.
struct SlNames {
  std::string l_star = "mcm_lstar";
  std::string e_star = "mcm_estar";
  std::string r_star = "mcm_rstar";
};

/// Evaluate the composition rules into `db` (skipping compositions that are
/// single atoms) under `options` and return the equivalent CslQuery
/// referencing the resulting relation names.
[[nodiscard]] Result<CslQuery> MaterializeStronglyLinear(
    Database* db, const StronglyLinearQuery& slq,
    const eval::EvalOptions& options = {}, const SlNames& names = {});

}  // namespace mcm::rewrite
