// A small Datalog interpreter over the generic engine.
//
// Usage:
//   datalog_repl [file.dl]       evaluate a program file and print query
//                                results
//   datalog_repl                 piped stdin: evaluate it like a file;
//                                terminal stdin: interactive session
//   datalog_repl -i              force the interactive session even when
//                                stdin is piped (for scripted use)
//
// Batch mode: if the program happens to be a canonical strongly linear
// query (the paper's class), the interpreter also reports the magic-graph
// class and evaluates it with an automatically chosen magic counting
// method, printing the cost comparison against plain bottom-up evaluation.
//
// Interactive mode accumulates rules/facts/queries line by line and
// understands:
//   :check   run the static analyzer (diagnostics + safety verdict table)
//   :explain show the cost model's per-method table and the plan the
//            planner would pick, without running anything
//   :run     evaluate the program and print query results (single-query
//            programs go through the planner, so the execution governor and
//            the degradation ladder apply)
//   :set     show or change governor knobs:
//              :set timeout MS | :set iterations N | :set tuples N |
//              :set fallback on|off
//   :list    show the accumulated program
//   :reset   discard the accumulated program
//   :quit    exit (as does end-of-input)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/analyzer.h"
#include "core/planner.h"
#include "core/solver.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "rewrite/csl.h"
#include "runtime/execution_context.h"

using namespace mcm;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintTuples(const Database& db, const dl::Atom& goal,
                 const std::vector<Tuple>& tuples) {
  std::printf("%s  — %zu result(s)\n", goal.ToString().c_str(),
              tuples.size());
  size_t shown = 0;
  for (const Tuple& t : tuples) {
    if (shown++ >= 50) {
      std::printf("  ... (%zu more)\n", tuples.size() - 50);
      break;
    }
    std::printf("  (");
    for (uint32_t i = 0; i < t.arity(); ++i) {
      if (i > 0) std::printf(", ");
      if (db.symbols().Contains(t[i])) {
        std::printf("%s", db.symbols().Resolve(t[i]).c_str());
      } else {
        std::printf("%lld", static_cast<long long>(t[i]));
      }
    }
    std::printf(")\n");
  }
}

int RunBatch(const std::string& source) {
  auto prog = dl::Parse(source);
  if (!prog.ok()) return Fail(prog.status());

  Database db;
  eval::EvalOptions options;
  options.max_iterations = 100000;
  eval::Engine engine(&db, options);
  Status st = engine.Run(*prog);
  if (!st.ok()) return Fail(st);

  std::printf("evaluated %zu rules in %llu fixpoint rounds, %llu tuples "
              "derived (%llu tuple reads)\n\n",
              prog->rules.size(),
              static_cast<unsigned long long>(engine.info().iterations),
              static_cast<unsigned long long>(engine.info().tuples_derived),
              static_cast<unsigned long long>(db.stats().tuples_read));

  for (const dl::Query& query : prog->queries) {
    auto tuples = engine.Query(query.goal);
    if (!tuples.ok()) return Fail(tuples.status());
    PrintTuples(db, query.goal, *tuples);
  }

  // Bonus: if this is a CSL query, demonstrate the magic counting methods.
  auto csl = rewrite::RecognizeCsl(*prog);
  if (csl.ok()) {
    std::printf("\nprogram is canonical strongly linear (%s); running the "
                "magic counting methods:\n",
                csl->ToString().c_str());
    uint64_t baseline_reads = db.stats().tuples_read;
    Value a = rewrite::ResolveSource(*csl, &db);
    core::CslSolver solver(&db, csl->l, csl->e, csl->r, a);
    for (auto [variant, mode] :
         {std::pair{core::McVariant::kBasic, core::McMode::kIndependent},
          std::pair{core::McVariant::kMultiple, core::McMode::kIntegrated},
          std::pair{core::McVariant::kRecurringSmart,
                    core::McMode::kIntegrated}}) {
      auto run = solver.RunMagicCounting(variant, mode);
      if (run.ok()) {
        std::printf("  %s\n", run->ToString().c_str());
      } else {
        std::printf("  failed: %s\n", run.status().ToString().c_str());
      }
    }
    std::printf("  (bottom-up evaluation above cost %llu reads)\n",
                static_cast<unsigned long long>(baseline_reads));
  }
  return 0;
}

void CheckProgram(const std::string& source) {
  auto prog = dl::Parse(source);
  if (!prog.ok()) {
    std::printf("parse error: %s\n", prog.status().ToString().c_str());
    return;
  }
  analysis::AnalysisResult result = analysis::Analyze(*prog);
  for (const dl::Diagnostic& d : result.diagnostics.diagnostics()) {
    std::printf("%s\n", d.ToString().c_str());
  }
  std::printf("%zu error(s), %zu warning(s)\n",
              result.diagnostics.error_count(),
              result.diagnostics.warning_count());
  if (result.safety.form != analysis::QueryForm::kNotStronglyLinear) {
    std::printf("query form: %s (%s)\n",
                std::string(QueryFormToString(result.safety.form)).c_str(),
                result.safety.signature.c_str());
    std::printf("%s", result.safety.ToString().c_str());
  }
}

void ExplainReplProgram(const std::string& source) {
  auto prog = dl::Parse(source);
  if (!prog.ok()) {
    std::printf("parse error: %s\n", prog.status().ToString().c_str());
    return;
  }
  if (prog->queries.size() != 1) {
    std::printf(":explain needs exactly one query in the program\n");
    return;
  }
  Database db;  // in-program facts only; load nothing
  auto report = core::ExplainProgram(&db, *prog);
  if (!report.ok()) {
    std::printf("error: %s\n", report.status().ToString().c_str());
    return;
  }
  if (report->cost.computed) {
    std::printf("%s\n", report->cost.ToString().c_str());
  } else if (!report->cost.note.empty()) {
    std::printf("cost model: not computed (%s)\n", report->cost.note.c_str());
  }
  std::printf("plan: %s [%s]\n", core::PlanKindToString(report->kind).c_str(),
              report->description.c_str());
}

/// Governor knobs adjustable with :set.
struct ReplSettings {
  core::RunOptions run;
  bool fallback = true;
};

void RunInteractiveProgram(const std::string& source,
                           const ReplSettings& settings) {
  auto prog = dl::Parse(source);
  if (!prog.ok()) {
    std::printf("parse error: %s\n", prog.status().ToString().c_str());
    return;
  }
  Database db;

  // Single-query programs go through the planner: governed execution plus
  // the degradation ladder, with the attempt log echoed on fallback.
  if (prog->queries.size() == 1) {
    core::PlannerOptions options;
    options.run = settings.run;
    options.allow_fallback = settings.fallback;
    auto report = core::SolveProgram(&db, *prog, options);
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
      return;
    }
    if (report->attempts.size() > 1) {
      std::printf("attempts:\n");
      for (const core::PlanAttempt& a : report->attempts) {
        std::printf("  %s\n", a.ToString().c_str());
      }
    }
    std::printf("plan: %s [%s]\n",
                core::PlanKindToString(report->kind).c_str(),
                report->description.c_str());
    PrintTuples(db, prog->queries[0].goal, report->results);
    return;
  }

  eval::EvalOptions options;
  options.max_iterations =
      settings.run.max_iterations != 0 ? settings.run.max_iterations : 100000;
  options.max_tuples = settings.run.max_tuples;
  options.max_memory_bytes = settings.run.max_memory_bytes;
  runtime::ExecutionContext ctx;
  if (settings.run.timeout_ms > 0) {
    ctx = runtime::ExecutionContext::WithTimeout(settings.run.timeout_ms);
    options.context = &ctx;
  }
  eval::Engine engine(&db, options);
  Status st = engine.Run(*prog);
  if (!st.ok()) {
    std::printf("error: %s\n", st.ToString().c_str());
    return;
  }
  std::printf("%llu tuples derived in %llu rounds\n",
              static_cast<unsigned long long>(engine.info().tuples_derived),
              static_cast<unsigned long long>(engine.info().iterations));
  for (const dl::Query& query : prog->queries) {
    auto tuples = engine.Query(query.goal);
    if (!tuples.ok()) {
      std::printf("error: %s\n", tuples.status().ToString().c_str());
      return;
    }
    PrintTuples(db, query.goal, *tuples);
  }
}

void HandleSet(const std::string& line, ReplSettings* settings) {
  std::istringstream in(line);
  std::string cmd, key, value;
  in >> cmd >> key >> value;
  if (key.empty()) {
    std::printf("timeout    %llu ms (0 = none)\n"
                "iterations %llu (0 = auto: n_L rounds for plain counting)\n"
                "tuples     %llu (0 = unlimited)\n"
                "fallback   %s\n",
                static_cast<unsigned long long>(settings->run.timeout_ms),
                static_cast<unsigned long long>(settings->run.max_iterations),
                static_cast<unsigned long long>(settings->run.max_tuples),
                settings->fallback ? "on" : "off");
    return;
  }
  if (key == "fallback") {
    if (value == "on" || value == "off") {
      settings->fallback = value == "on";
      std::printf("fallback %s\n", value.c_str());
    } else {
      std::printf(":set fallback expects on|off\n");
    }
    return;
  }
  char* end = nullptr;
  uint64_t n = std::strtoull(value.c_str(), &end, 10);
  bool numeric = !value.empty() && end != nullptr && *end == '\0';
  if (key == "timeout" && numeric) {
    settings->run.timeout_ms = n;
    std::printf("timeout %llu ms\n", static_cast<unsigned long long>(n));
  } else if (key == "iterations" && numeric) {
    settings->run.max_iterations = n;
    std::printf("iterations %llu\n", static_cast<unsigned long long>(n));
  } else if (key == "tuples" && numeric) {
    settings->run.max_tuples = n;
    std::printf("tuples %llu\n", static_cast<unsigned long long>(n));
  } else {
    std::printf(
        "usage: :set [timeout MS | iterations N | tuples N | "
        "fallback on|off]\n");
  }
}

int RunInteractive() {
  std::printf("mcm datalog repl — enter rules/facts/queries; "
              ":check  :explain  :run  :set  :list  :reset  :quit\n");
  std::string program;
  std::string line;
  ReplSettings settings;
  while (true) {
    std::printf("> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line == ":quit" || line == ":q") break;
    if (line == ":check") {
      CheckProgram(program);
    } else if (line == ":explain") {
      ExplainReplProgram(program);
    } else if (line == ":run") {
      RunInteractiveProgram(program, settings);
    } else if (line.rfind(":set", 0) == 0) {
      HandleSet(line, &settings);
    } else if (line == ":list") {
      std::printf("%s", program.c_str());
    } else if (line == ":reset") {
      program.clear();
      std::printf("program cleared\n");
    } else if (!line.empty() && line[0] == ':') {
      std::printf("unknown command '%s'\n", line.c_str());
    } else {
      program += line;
      program += '\n';
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "-i") {
    return RunInteractive();
  }
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream ss;
    ss << file.rdbuf();
    return RunBatch(ss.str());
  }
  if (isatty(fileno(stdin)) == 0) {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    return RunBatch(ss.str());
  }
  return RunInteractive();
}
