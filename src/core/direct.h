// Direct (engine-free) implementations of the methods.
//
// These are hand-coded fixpoint loops that follow the paper's procedural
// pseudo-code (Sections 2, 4, 5) literally: they read the database
// relations through instrumented index probes — so their cost is measured
// in the same tuple-retrieval unit — and keep the derived sets (CS, MS,
// P_C, P_M) in plain hash containers, which the paper's cost model does
// not charge.
//
// The engine-based path (CslSolver, which evaluates the rewritten Datalog
// programs) and this direct path are two independent implementations of
// the same algorithms; the test suite cross-checks them on random
// databases (tests/core/direct_test.cc).
#pragma once

#include "core/method.h"
#include "core/step1.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::core {

/// The counting method (program Q_C run procedurally). Returns
/// Status::Unsafe when the counting-set BFS passes the level cap
/// CountingRoundCap resolves (n_L unless `max_iterations` is set) or the
/// tuple cap, and honors the execution governor (deadline / cancellation /
/// memory budget).
Result<MethodRun> DirectCounting(Database* db, const std::string& l,
                                 const std::string& e, const std::string& r,
                                 Value a, const RunOptions& options = {});

/// The magic set method (program Q_M run procedurally). Always safe.
Result<MethodRun> DirectMagicSets(Database* db, const std::string& l,
                                  const std::string& e, const std::string& r,
                                  Value a, const RunOptions& options = {});

/// A magic counting method: Step 1 via ComputeReducedSets(), Step 2 run
/// procedurally (independent: Section 4; integrated: Section 5).
Result<MethodRun> DirectMagicCounting(Database* db, const std::string& l,
                                      const std::string& e,
                                      const std::string& r, Value a,
                                      McVariant variant, McMode mode,
                                      const RunOptions& options = {});

}  // namespace mcm::core
