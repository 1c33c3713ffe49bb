// Recognition of canonical strongly linear (CSL) queries.
//
// The paper's methods are defined for the query class
//     query:  P(a, Y)?
//     exit:   P(X, Y) :- E(X, Y).
//     rec:    P(X, Y) :- L(X, X1), P(X1, Y1), R(Y, Y1).
// where E, L, R are database predicates and X, Y, X1, Y1 are four distinct
// variables ([SZ1] calls these canonical strongly linear). A rule where two
// of them coincide, such as L(X, X1), P(X1, X1), R(Y, X1), is a different
// query. The shape rules live in RecognizeStronglyLinear
// (strongly_linear.h); the canonical form is its all-atom case
// (StronglyLinearQuery::Canonical()), where L, E and R are each one binary
// atom in canonical argument order.
#pragma once

#include "datalog/ast.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::rewrite {

/// \brief The signature of a CSL query: predicate names plus the query
/// constant.
struct CslQuery {
  std::string p;  ///< recursive predicate
  std::string e;  ///< exit database predicate
  std::string l;  ///< left (binding-propagating) database predicate
  std::string r;  ///< right database predicate
  dl::Term source;  ///< the constant `a` in the query goal
  std::string answer_var;  ///< name of the free variable in the goal

  std::string ToString() const;
};

/// A recognized reverse-bound CSL query (see RecognizeReverseCsl).
struct ReverseCsl {
  CslQuery csl;           ///< mirrored forward query (l = R, r = L,
                          ///< e = `swapped_e_name`)
  std::string original_e; ///< the E relation to swap into `swapped_e_name`
};

/// Recognize the *reverse-bound* CSL form: the same rule pair but queried
/// as P(X, b)? (binding enters through the second argument), whose mirrored
/// forward query RecognizeStronglyLinear accepts in its all-atom case
/// (StronglyLinearQuery::Canonical()). The query is
/// equivalent to the forward-bound query over the mirrored signature
///   P~(Y, X) :- E~(Y, X).   P~(Y, X) :- R(Y, Y1), P~(Y1, X1), L(X, X1).
/// i.e. L' = R, R' = L, E' = E with swapped columns; the caller
/// materializes the swap with MaterializeSwappedE before running.
[[nodiscard]] Result<ReverseCsl> RecognizeReverseCsl(
    const dl::Program& program, const std::string& swapped_e_name);

/// Create (or refresh) `swapped_name` in `db` as the column-swap of binary
/// relation `e_name`.
[[nodiscard]] Status MaterializeSwappedE(Database* db,
                                         const std::string& e_name,
                                         const std::string& swapped_name);

/// Resolve the query constant to a Value against `db`'s symbol table
/// (interning it if new).
Value ResolveSource(const CslQuery& q, Database* db);

}  // namespace mcm::rewrite
