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
// A goal P(X, b)? is the same query over the mirrored rules: with
// P~(Y, X) = P(X, Y) the goal is P~(b, X)?, R carries the binding, and E's
// columns swap. The recognizer returns that mirrored form with `reverse`
// set: the bound side of the head is X, the prefix is the R-part, and the
// exit rule's head columns are read in swapped order, so a canonical E
// becomes the composition e*(Y, X) :- E(X, Y).
//
// RecognizeQuery() splits a program around its query goal and recognizes
// the goal rules once. analysis::Analyze calls it once per program and
// keeps the result on AnalysisResult::recognized, which the safety pass and
// the planner read.
#pragma once

#include <string>
#include <vector>

#include "datalog/ast.h"
#include "eval/engine.h"
#include "rewrite/csl.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::rewrite {

/// \brief A recognized strongly linear query, in the orientation whose
/// first argument is bound.
struct StronglyLinearQuery {
  std::string p;
  dl::Term source;         ///< the goal's constant
  std::string answer_var;  ///< the goal's free variable
  /// The goal is P(X, b)?: the fields below describe the mirrored rules.
  bool reverse = false;

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

  /// Nothing needs materializing; with a forward goal this is canonical CSL.
  bool AllAtoms() const {
    return prefix_is_atom && suffix_is_atom && exit_is_atom;
  }

  /// "CSL{P=p E=e L=l R=r a=1}" when AllAtoms(), else
  /// "SL{P=p |prefix|=2 |suffix|=1 |exit|=1 a=1}"; a reverse-bound goal's
  /// constant prints as "b=".
  std::string ToString() const;
};

/// Recognize the strongly linear form of `program`: rules for one predicate
/// plus one query with exactly one bound argument. Canonical CSL queries
/// are its forward all-atom case.
[[nodiscard]] Result<StronglyLinearQuery> RecognizeStronglyLinear(
    const dl::Program& program);

/// \brief A single-query program whose recursive part has a strongly
/// linear form.
struct RecognizedQuery {
  /// Rules and facts for every predicate but the goal's. They define any
  /// derived L/E/R, so they run before the query.
  dl::Program support;
  StronglyLinearQuery query;
};

/// Split `program` into its goal predicate's rules and the support rules,
/// then recognize the goal rules with RecognizeStronglyLinear. Unsupported
/// when the program does not have exactly one query, a support rule depends
/// on the goal predicate, or the goal rules are not strongly linear.
[[nodiscard]] Result<RecognizedQuery> RecognizeQuery(
    const dl::Program& program);

/// Names used for materialized composition relations.
struct SlNames {
  std::string l_star = "mcm_lstar";
  std::string e_star = "mcm_estar";
  std::string r_star = "mcm_rstar";
};

/// Evaluate the composition rules into `db` (skipping compositions that are
/// single atoms; a composition relation left by an earlier call is cleared
/// first) under `options` and return the equivalent CslQuery referencing
/// the resulting relation names. This is the only way from a recognized
/// query to the signature the methods run on.
[[nodiscard]] Result<CslQuery> MaterializeStronglyLinear(
    Database* db, const StronglyLinearQuery& slq,
    const eval::EvalOptions& options = {}, const SlNames& names = {});

}  // namespace mcm::rewrite
