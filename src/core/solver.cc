#include "core/solver.h"

#include <algorithm>

#include "eval/engine.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace mcm::core {

CslSolver::CslSolver(Database* db, std::string l, std::string e, std::string r,
                     Value source)
    : db_(db) {
  csl_.p = "mcm_p";
  csl_.l = std::move(l);
  csl_.e = std::move(e);
  csl_.r = std::move(r);
  csl_.source = dl::Term::Int(source);  // already a resolved Value
  csl_.answer_var = "Y";
  work_names_.ms = names_.ms;
  work_names_.rm = names_.rm;
  work_names_.rc = names_.rc;
}

void CslSolver::DropWorkingRelations() {
  for (const std::string& name :
       {names_.cs, names_.ms, names_.pc, names_.pm, names_.rm, names_.rc,
        names_.answer, csl_.p}) {
    db_->Drop(name);
  }
}

namespace {

std::vector<Value> ExtractAnswers(const std::vector<Tuple>& tuples,
                                  uint32_t col) {
  std::vector<Value> out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) out.push_back(t[col]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Result<MethodRun> CslSolver::RunProgramMethod(const std::string& name,
                                              const dl::Program& program,
                                              const RunOptions& options) {
  MCM_FAULT_POINT("solver/run");
  MethodRun run;
  run.method = name;

  runtime::ExecutionContext local_ctx;
  eval::EvalOptions eopts =
      GovernedEvalOptions(options, /*default_cap=*/0, &local_ctx);

  AccessStats before = db_->stats();
  Timer timer;
  eval::Engine engine(db_, eopts);
  Status st = engine.Run(program);
  run.seconds = timer.ElapsedSeconds();
  AccessStats after = db_->stats();
  run.step2.tuples_read = after.tuples_read - before.tuples_read;
  run.step2.tuples_inserted = after.tuples_inserted - before.tuples_inserted;
  run.step2.insert_attempts = after.insert_attempts - before.insert_attempts;
  run.step2.scans = after.scans - before.scans;
  run.step2.probes = after.probes - before.probes;
  run.total = run.step2;
  run.step2_iterations = engine.info().iterations;
  if (!st.ok()) return st;

  MCM_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                       engine.Query(program.queries[0].goal));
  uint32_t col =
      program.queries[0].goal.arity() == 1 ? 0 : 1;  // Answer(Y) or P(a, Y)
  run.answers = ExtractAnswers(tuples, col);
  return run;
}

Result<MethodRun> CslSolver::RunCounting(const RunOptions& options) {
  DropWorkingRelations();
  RunOptions capped = options;
  capped.max_iterations =
      CountingRoundCap(options, db_->Find(csl_.l), csl_.source.value);
  return RunProgramMethod("counting", rewrite::CountingProgram(csl_, names_),
                          capped);
}

Result<MethodRun> CslSolver::RunMagicSets(const RunOptions& options) {
  DropWorkingRelations();
  return RunProgramMethod("magic_sets", rewrite::MagicSetProgram(csl_, names_),
                          options);
}

Result<MethodRun> CslSolver::RunReference(const RunOptions& options) {
  DropWorkingRelations();
  return RunProgramMethod("reference", rewrite::OriginalProgram(csl_),
                          options);
}

Result<MethodRun> CslSolver::RunMagicCounting(McVariant variant, McMode mode,
                                              const RunOptions& options) {
  MCM_FAULT_POINT("solver/run");
  DropWorkingRelations();

  Value a = csl_.source.value;

  // --- Step 1: reduced sets. ---
  AccessStats before = db_->stats();
  Timer timer;
  MCM_ASSIGN_OR_RETURN(
      Step1Result s1,
      ComputeReducedSets(db_, csl_.l, a, variant, mode, work_names_,
                         options.detection));
  AccessStats mid = db_->stats();

  // --- Step 2: modified rules. ---
  dl::Program program = mode == McMode::kIndependent
                            ? rewrite::IndependentMcProgram(csl_, names_)
                            : rewrite::IntegratedMcProgram(csl_, names_);

  runtime::ExecutionContext local_ctx;
  eval::EvalOptions eopts =
      GovernedEvalOptions(options, /*default_cap=*/0, &local_ctx);
  eval::Engine engine(db_, eopts);
  Status st = engine.Run(program);
  double seconds = timer.ElapsedSeconds();
  AccessStats after = db_->stats();

  MethodRun run;
  run.method = "mc/" + McVariantToString(variant) + "/" + McModeToString(mode);
  run.seconds = seconds;
  run.step1.tuples_read = mid.tuples_read - before.tuples_read;
  run.step1.tuples_inserted = mid.tuples_inserted - before.tuples_inserted;
  run.step2.tuples_read = after.tuples_read - mid.tuples_read;
  run.step2.tuples_inserted = after.tuples_inserted - mid.tuples_inserted;
  run.total.tuples_read = after.tuples_read - before.tuples_read;
  run.total.tuples_inserted = after.tuples_inserted - before.tuples_inserted;
  run.step2_iterations = engine.info().iterations;
  run.ms_size = s1.ms_size;
  run.rm_size = s1.rm_size;
  run.rc_size = s1.rc_size;
  run.detected_class = s1.detected;
  if (!st.ok()) return st;

  MCM_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                       engine.Query(program.queries[0].goal));
  run.answers = ExtractAnswers(tuples, 0);
  return run;
}

std::vector<std::string> CslSolver::AllMethodNames() {
  std::vector<std::string> out{"counting", "magic_sets"};
  for (const char* v :
       {"basic", "single", "multiple", "recurring", "recurring_smart"}) {
    for (const char* m : {"independent", "integrated"}) {
      out.push_back(std::string("mc/") + v + "/" + m);
    }
  }
  return out;
}

}  // namespace mcm::core
