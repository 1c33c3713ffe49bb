// Method taxonomy and run results.
//
// The paper's family is indexed by two coordinates (Section 10):
//   * variant:  basic / single / multiple / recurring — how precisely Step 1
//     classifies magic-graph nodes (plus `recurring_smart`, the linear-time
//     SCC refinement sketched at the end of Section 9);
//   * mode: independent / integrated — whether Step 2 runs the counting and
//     magic parts separately (Section 4) or pipes the magic results into the
//     counting fixpoint (Section 5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "graph/classify.h"
#include "runtime/execution_context.h"
#include "storage/access_stats.h"
#include "storage/value.h"
#include "util/status.h"

namespace mcm {
class Relation;
}  // namespace mcm

namespace mcm::core {

enum class McVariant : uint8_t {
  kBasic,
  kSingle,
  kMultiple,
  kRecurring,
  kRecurringSmart,  ///< Tarjan-based Step 1 (Section 9's refinement)
};

enum class McMode : uint8_t { kIndependent, kIntegrated };

std::string McVariantToString(McVariant v);
std::string McModeToString(McMode m);

/// How Step 1 decides that a node is non-single.
enum class DetectionMode : uint8_t {
  /// Flag a node whenever it is derived a second time, even at the same
  /// index — the literal reading of the paper's Step-1 pseudo-code. Safe
  /// over-approximation: a "diamond" (two equal-length paths) sends a
  /// perfectly single node to the magic side.
  kAnyDuplicate,
  /// Flag only on re-derivation at a *different* index — exact with respect
  /// to Proposition 1 (see the correctness argument in step1.cc). Default.
  kDifferingIndex,
};

std::string DetectionModeToString(DetectionMode m);

/// Safety and instrumentation knobs for a method run.
struct RunOptions {
  /// Fixpoint-round cap per recursive stratum; hit => Status::Unsafe.
  /// 0 = auto, the one default-cap policy of every engine run:
  ///  * Plain counting caps rounds (levels on the direct path) at n_L + c
  ///    with c = 0, n_L being the values reachable from `a` over the L the
  ///    run reads (CountingRoundCap). On an acyclic G_L every counting
  ///    index is a path length, at most n_L - 1 (Proposition 3). The
  ///    engine's round 0 derives CS(0, a) and round r reads the delta of
  ///    round r - 1, whose indices are >= r - 1, so the CS stratum sees its
  ///    last non-empty delta by round n_L; the P_C descent from index
  ///    n_L - 1 to 0 takes as many. A stratum trips only on a non-empty
  ///    delta past the cap, so a trip proves a cycle.
  ///  * The other CSL rungs (MC Step 2, magic sets, the reference run)
  ///    always terminate and get no cap.
  ///  * The program's own rules (support strata, the generalized magic
  ///    rewrite, bottom-up evaluation, mcmq --profile) stop after
  ///    kProgramRoundCap rounds per stratum: an affine head such as
  ///    `n(X+1) :- n(X).` can diverge there, and no exact bound exists.
  uint64_t max_iterations = 0;
  /// Derived-tuple cap per recursive stratum; hit => Status::Unsafe.
  /// 0 = unlimited.
  uint64_t max_tuples = 0;
  /// Approximate memory budget for the whole database during the run; hit
  /// => Status::Unsafe. 0 = unlimited.
  uint64_t max_memory_bytes = 0;
  /// Wall-clock budget; on expiry the run aborts with
  /// Status::DeadlineExceeded. 0 = none. Ignored when `context` is set —
  /// an explicit context carries its own deadline.
  uint64_t timeout_ms = 0;
  /// Optional externally-owned governor (deadline + cancellation token).
  /// When null and timeout_ms > 0, the solver builds a per-run context.
  const runtime::ExecutionContext* context = nullptr;
  DetectionMode detection = DetectionMode::kDifferingIndex;
  /// Skip dl::Validate inside the engine for the programs a run hands it.
  /// The planner sets this: it runs the analyzer once per SolveProgram and
  /// every ladder rung then evaluates a machine-generated rewrite of that
  /// already-validated program, so per-rung re-validation is pure overhead.
  bool assume_validated = false;
};

/// The default round cap per stratum of an engine run over the program's
/// own rules (see RunOptions::max_iterations).
inline constexpr uint64_t kProgramRoundCap = uint64_t{1} << 20;

/// The one RunOptions -> eval::EvalOptions translation: caps, memory
/// budget, assume_validated and the execution context (an explicit one
/// wins; otherwise a fresh deadline from timeout_ms is stored in
/// `local_ctx`, which the caller must keep alive for the run). The round
/// cap is `options.max_iterations`, or `default_cap` when that is 0: 0 (no
/// cap) for a CSL rung, whose counting run sets its n_L as
/// max_iterations beforehand, and kProgramRoundCap for the program's own
/// rules.
eval::EvalOptions GovernedEvalOptions(const RunOptions& options,
                                      uint64_t default_cap,
                                      runtime::ExecutionContext* local_ctx);

/// The round cap of a plain counting run over `l` from `a`:
/// `options.max_iterations` when set, else n_L, the values reachable from
/// `a` over `l` (`a` included, so never 0; a null `l` is empty). The walk
/// reads l's column-0 index, the one the counting-set rule probes, without
/// instrumentation: the run's reads, probes and inserts do not move.
uint64_t CountingRoundCap(const RunOptions& options, const Relation* l,
                          Value a);

/// \brief Outcome and cost breakdown of one method execution.
struct MethodRun {
  std::string method;           ///< e.g. "counting", "mc/single/integrated"
  std::vector<Value> answers;   ///< sorted distinct answer values

  AccessStats step1;            ///< tuple-retrieval cost of Step 1
  AccessStats step2;            ///< tuple-retrieval cost of Step 2
  AccessStats total;            ///< step1 + step2

  uint64_t step2_iterations = 0;
  double seconds = 0.0;

  size_t ms_size = 0;  ///< |MS|
  size_t rm_size = 0;  ///< |RM|
  size_t rc_size = 0;  ///< |RC| (index,value pairs)

  /// Graph class as detected by Step 1 (kRegular when the method decided to
  /// run pure counting).
  graph::GraphClass detected_class = graph::GraphClass::kRegular;

  std::string ToString() const;
};

}  // namespace mcm::core
