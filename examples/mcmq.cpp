// mcmq — command-line query processor.
//
// Usage:
//   mcmq PROGRAM.dl [--fact NAME=FILE.tsv]... [--method M] [--out FILE.tsv]
//        [--profile] [--explain]
//        [--timeout-ms N] [--max-tuples N] [--max-iterations N]
//        [--max-memory-bytes N] [--no-fallback]
//
//   PROGRAM.dl       Datalog rules + one query
//   --fact name=path load a TSV fact file into relation `name`
//   --method         evaluation strategy (the same vocabulary as
//                    mcm-serve --method, see core::ParseMethod):
//                      auto       planner picks, ranking the methods by the
//                                 cost model's predictions when the instance
//                                 statistics allow it (default)
//                      safe       fixed safe walk from mc:multiple:int
//                      counting   pure counting; when the static verdict is
//                                 unsafe/undecidable it is *attempted* under
//                                 the execution governor and the degradation
//                                 ladder recovers on divergence
//                      magic      generalized magic sets
//                      bottom_up  plain seminaive evaluation
//                      mc:V:M     safe walk from magic counting variant V
//                                 (basic|single|multiple|recurring|smart),
//                                 mode M (ind|int)
//   --out path       write the result tuples as TSV
//   --profile        evaluate the program bottom-up, under the same
//                    governor and default round cap as the planner's
//                    bottom_up path, and print a per-rule cost breakdown
//   --explain        print the static analysis — the Propositions 4-7 cost
//                    table, the safety verdicts, and the plan the planner
//                    would choose with its ladder order — WITHOUT running
//                    any fixpoint
//   --timeout-ms N     wall-clock deadline for the whole run
//   --max-tuples N     abort when a fixpoint materializes more tuples
//   --max-iterations N fixpoint round / counting level cap for every rung
//                      and every stratum (default: n_L rounds for plain
//                      counting, none for the other CSL rungs,
//                      core::kProgramRoundCap per stratum for the program's
//                      own rules; see RunOptions::max_iterations)
//   --max-memory-bytes N  approximate memory budget for derived relations
//   --no-fallback      fail on the first aborted attempt instead of
//                      degrading to the next-safer method (Figure 3 order)
//
// Examples:
//   mcmq samegen.dl --fact parent=parents.tsv --method mc:multiple:int
//   mcmq cyclic_sg.dl --method counting --timeout-ms 500
//   mcmq cyclic_sg.dl --method counting --no-fallback   # exits 1, Unsafe
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/planner.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "runtime/execution_context.h"
#include "storage/io.h"

using namespace mcm;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "mcmq: %s\n", msg.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mcmq PROGRAM.dl [--fact NAME=FILE]... "
                 "[--method M] [--out FILE] [--profile]\n");
    return 2;
  }

  std::string program_path = argv[1];
  std::string method = "auto";
  std::string out_path;
  bool profile = false;
  bool explain = false;
  bool no_fallback = false;
  core::RunOptions run;
  std::vector<std::pair<std::string, std::string>> facts;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    auto next_u64 = [&](uint64_t* out) {
      std::string v = next();
      char* end = nullptr;
      *out = std::strtoull(v.c_str(), &end, 10);
      return !v.empty() && end != nullptr && *end == '\0';
    };
    if (arg == "--fact") {
      std::string spec = next();
      size_t eq = spec.find('=');
      if (eq == std::string::npos) return Fail("--fact expects NAME=FILE");
      facts.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--method") {
      method = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--timeout-ms") {
      if (!next_u64(&run.timeout_ms)) return Fail("--timeout-ms expects N");
    } else if (arg == "--max-tuples") {
      if (!next_u64(&run.max_tuples)) return Fail("--max-tuples expects N");
    } else if (arg == "--max-iterations") {
      if (!next_u64(&run.max_iterations)) {
        return Fail("--max-iterations expects N");
      }
    } else if (arg == "--max-memory-bytes") {
      if (!next_u64(&run.max_memory_bytes)) {
        return Fail("--max-memory-bytes expects N");
      }
    } else if (arg == "--no-fallback") {
      no_fallback = true;
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }

  std::ifstream file(program_path);
  if (!file) return Fail("cannot open " + program_path);
  std::stringstream ss;
  ss << file.rdbuf();

  auto prog = dl::Parse(ss.str());
  if (!prog.ok()) return Fail(prog.status().ToString());
  if (prog->queries.size() != 1) {
    return Fail("program must contain exactly one query");
  }

  Database db;
  for (const auto& [name, path] : facts) {
    Status st = LoadRelationTsv(&db, name, path);
    if (!st.ok()) return Fail(st.ToString());
  }

  core::PlannerOptions options;
  options.run = run;
  options.allow_fallback = !no_fallback;
  if (!core::ParseMethod(method, &options)) {
    return Fail("unknown --method '" + method + "'");
  }

  if (explain) {
    auto report = core::ExplainProgram(&db, *prog, options);
    if (!report.ok()) return Fail(report.status().ToString());
    if (report->cost.computed) {
      std::printf("%s\n", report->cost.ToString().c_str());
    } else if (!report->cost.note.empty()) {
      std::printf("cost model: not computed (%s)\n\n",
                  report->cost.note.c_str());
    }
    if (report->safety.form != analysis::QueryForm::kNotStronglyLinear) {
      std::printf("%s\n", report->safety.ToString().c_str());
    }
    std::printf("plan: %s [%s]\n",
                core::PlanKindToString(report->kind).c_str(),
                report->description.c_str());
    return 0;
  }

  if (profile) {
    // Profiling implies plain evaluation so every rule is observable; it
    // runs under the planner's governor and program round cap.
    runtime::ExecutionContext ctx;
    eval::EvalOptions eopts =
        core::GovernedEvalOptions(run, core::kProgramRoundCap, &ctx);
    eopts.profile = true;
    eval::Engine engine(&db, eopts);
    Status st = engine.Run(*prog);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("%s", engine.ProfileToString().c_str());
    auto tuples = engine.Query(prog->queries[0].goal);
    if (!tuples.ok()) return Fail(tuples.status().ToString());
    std::printf("%zu result(s)\n", tuples->size());
    return 0;
  }

  auto report = core::SolveProgram(&db, *prog, options);
  if (!report.ok()) return Fail(report.status().ToString());

  // Surface the degradation ladder whenever more than one method ran (or a
  // single governed attempt failed before the planner fell through).
  bool any_failed = false;
  for (const core::PlanAttempt& a : report->attempts) {
    if (!a.status.ok()) any_failed = true;
  }
  if (report->attempts.size() > 1 || any_failed) {
    std::fprintf(stderr, "attempts:\n");
    for (const core::PlanAttempt& a : report->attempts) {
      std::fprintf(stderr, "  %s\n", a.ToString().c_str());
    }
  }

  if (report->predicted_reads >= 0) {
    std::fprintf(stderr, "plan: %s [%s], %llu tuple reads (predicted %.0f)\n",
                 core::PlanKindToString(report->kind).c_str(),
                 report->description.c_str(),
                 static_cast<unsigned long long>(report->stats.tuples_read),
                 report->predicted_reads);
  } else {
    std::fprintf(stderr, "plan: %s [%s], %llu tuple reads\n",
                 core::PlanKindToString(report->kind).c_str(),
                 report->description.c_str(),
                 static_cast<unsigned long long>(report->stats.tuples_read));
  }

  auto print_tuple = [&](const Tuple& t, std::FILE* out) {
    for (uint32_t i = 0; i < t.arity(); ++i) {
      if (i > 0) std::fputc('\t', out);
      if (db.symbols().Contains(t[i])) {
        std::fputs(db.symbols().Resolve(t[i]).c_str(), out);
      } else {
        std::fprintf(out, "%lld", static_cast<long long>(t[i]));
      }
    }
    std::fputc('\n', out);
  };

  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) return Fail("cannot write " + out_path);
    for (const Tuple& t : report->results) print_tuple(t, out);
    std::fclose(out);
    std::fprintf(stderr, "%zu result(s) written to %s\n",
                 report->results.size(), out_path.c_str());
  } else {
    for (const Tuple& t : report->results) print_tuple(t, stdout);
    std::fprintf(stderr, "%zu result(s)\n", report->results.size());
  }
  return 0;
}
