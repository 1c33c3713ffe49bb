// Generalized magic set rewriting (Bancilhon-Maier-Sagiv-Ullman style)
// for stratified linear Datalog programs.
//
// Given a program and a query with bound arguments, produces the adorned
// program guarded by magic predicates:
//   * every adorned rule  H^a :- body  becomes
//       H^a :- magic_H^a(bound head args), body;
//   * every positive adorned IDB body atom Q^b at position i contributes
//       magic_Q^b(bound args of Q) :- magic_H^a(bound head args),
//                                     body[0 .. i);
//   * the query seeds  magic_Pq^aq(constants).
// The paper's Q_M (Section 2) is exactly this transformation applied to a
// canonical strongly linear query (modulo predicate naming); the generic
// version handles any number of IDB predicates, multiple rules, negation
// across strata, and comparison guards.
#pragma once

#include "datalog/ast.h"
#include "rewrite/adornment.h"
#include "util/status.h"

namespace mcm::rewrite {

/// Options for the magic rewriting.
struct MagicOptions {
  /// Prefix for magic predicates ("magic_" + adorned name).
  std::string magic_prefix = "magic_";
};

/// \brief Output of the magic transformation.
struct MagicProgram {
  dl::Program program;    ///< magic + modified rules, query included
  dl::Atom adorned_goal;  ///< goal against the adorned query predicate
};

/// Apply the generalized magic set transformation for `goal` over
/// `program`. The rewritten program computes the same answers to the goal
/// as the original, touching only facts relevant to the goal's bound
/// arguments, and passes dl::Validate: a rewriting that does not (an
/// affine recursive head yields a magic rule with an unbound head) is
/// Unsupported. Programs whose rewriting would need supplementary
/// predicates to stay stratified are still emitted; the engine's
/// stratification check is the final arbiter.
[[nodiscard]] Result<MagicProgram> MagicRewrite(
    const dl::Program& program, const dl::Atom& goal,
    const MagicOptions& options = {});

}  // namespace mcm::rewrite
