// CslSolver: one-stop driver for every evaluation method on a CSL query.
//
// The solver owns nothing; it runs methods against a caller-provided
// Database holding the L, E, R relations, creating (and clearing) its
// working relations (mcm_*) per run, and reports per-step cost in the
// paper's tuple-retrieval unit.
#pragma once

#include <string>

#include "core/method.h"
#include "core/step1.h"
#include "datalog/ast.h"
#include "rewrite/csl.h"
#include "rewrite/csl_rewrites.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::core {

/// \brief Runs the counting / magic-set baselines and all magic counting
/// methods on one query instance.
class CslSolver {
 public:
  /// `l`, `e`, `r` name binary relations already populated in `db`;
  /// `source` is the query constant (already resolved to a Value).
  CslSolver(Database* db, std::string l, std::string e, std::string r,
            Value source);

  /// The counting method (Section 2, program Q_C). Returns Status::Unsafe
  /// when the counting-set fixpoint diverges (cyclic magic graph): with
  /// `max_iterations` 0 its strata stop after n_L rounds
  /// (CountingRoundCap).
  Result<MethodRun> RunCounting(const RunOptions& options = {});

  /// The magic set method (Section 2, program Q_M). Always safe.
  Result<MethodRun> RunMagicSets(const RunOptions& options = {});

  /// A magic counting method (variant x mode).
  Result<MethodRun> RunMagicCounting(McVariant variant, McMode mode,
                                     const RunOptions& options = {});

  /// Reference answer: bottom-up evaluation of the original program Q
  /// (always terminates; used for correctness cross-checks).
  Result<MethodRun> RunReference(const RunOptions& options = {});

  /// All ten methods' names, for reporting loops.
  static std::vector<std::string> AllMethodNames();

  const rewrite::CslQuery& csl() const { return csl_; }
  Database* db() { return db_; }

 private:
  Result<MethodRun> RunProgramMethod(const std::string& name,
                                     const dl::Program& program,
                                     const RunOptions& options);
  void DropWorkingRelations();

  Database* db_;
  rewrite::CslQuery csl_;
  rewrite::RewriteNames names_;
  WorkNames work_names_;
};

}  // namespace mcm::core
