// Canonical strongly linear (CSL) queries: the signature the methods run on.
//
// The paper's methods are defined for the query class
//     query:  P(a, Y)?
//     exit:   P(X, Y) :- E(X, Y).
//     rec:    P(X, Y) :- L(X, X1), P(X1, Y1), R(Y, Y1).
// where E, L, R are database predicates and X, Y, X1, Y1 are four distinct
// variables ([SZ1] calls these canonical strongly linear). A rule where two
// of them coincide, such as L(X, X1), P(X1, X1), R(Y, X1), is a different
// query. The shape rules live in RecognizeStronglyLinear
// (strongly_linear.h), and MaterializeStronglyLinear turns what it
// recognizes into this signature: the relation of each single atom in
// canonical argument order, a materialized composition otherwise.
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

/// Resolve the query constant to a Value against `db`'s symbol table
/// (interning it if new).
Value ResolveSource(const CslQuery& q, Database* db);

}  // namespace mcm::rewrite
