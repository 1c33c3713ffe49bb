// Pass 2: predicate dependency graph and program-shape warnings.
//
// Builds the graph whose nodes are predicate names and whose arcs run from
// each rule head to every predicate in that rule's body, then derives:
//   * IDB/EDB classification (a predicate is IDB iff some rule or in-program
//     fact defines it),
//   * E101 errors for a stored relation (when a Database is supplied) that
//     the program uses with another arity,
//   * W201 undefined-predicate warnings (body predicate with no rules, no
//     in-program facts, and no stored relation when a Database is supplied),
//   * W202 unused / W203 unreachable warnings relative to the program's
//     queries,
//   * W204 negation-through-recursion warnings (the program cannot be
//     stratified; eval::Stratify would reject it at run time).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "datalog/diagnostic.h"
#include "graph/digraph.h"
#include "storage/database.h"

namespace mcm::analysis {

/// \brief The predicate dependency graph plus derived classifications.
struct DependencyInfo {
  std::vector<std::string> predicates;  ///< node id -> name
  std::vector<uint32_t> arities;        ///< node id -> first-seen arity
  std::vector<bool> is_idb;             ///< defined by a rule or fact
  std::vector<bool> reachable;          ///< reachable from some query goal
  graph::Digraph graph;                 ///< arcs: head -> body predicates
  std::unordered_map<std::string, graph::NodeId> id_of;

  /// kInvalidNode if the predicate does not occur in the program.
  graph::NodeId IdOf(const std::string& name) const;

  /// True when `a` depends on `b` directly (arc a -> b).
  bool DependsOn(const std::string& a, const std::string& b) const;

  std::string ToString() const;
};

/// Build the dependency info for `program` and append shape diagnostics to
/// `bag`. `db` may be null; when present, its relation names count as
/// defined EDB predicates for the W201 check, and its arities are checked
/// against the program's (E101).
DependencyInfo AnalyzeDependencies(const dl::Program& program,
                                   const Database* db, dl::DiagnosticBag* bag);

}  // namespace mcm::analysis
