// A small Datalog interpreter over the query planner.
//
// Usage:
//   datalog_repl [file.dl]       evaluate a program file and print query
//                                results
//   datalog_repl                 piped stdin: evaluate it like a file;
//                                terminal stdin: interactive session
//   datalog_repl -i              force the interactive session even when
//                                stdin is piped (for scripted use)
//
// Batch mode solves each query of the program through the planner
// (core::SolveProgram), one query at a time on a fresh database, and prints
// the plan and the answers. When the query is in the paper's class, it also
// answers it with mc:basic:ind, mc:multiple:int, mc:smart:int and
// bottom_up, each through the planner, and prints what each cost.
//
// Interactive mode accumulates rules/facts/queries line by line and
// understands:
//   :check   run the static analyzer (diagnostics + safety verdict table)
//   :explain show the cost model's per-method table and the plan the
//            planner would pick, without running anything
//   :run     solve each query through the planner, one at a time, under the
//            :set knobs (the execution governor and the degradation ladder
//            apply), and print its plan and results
//   :set     show or change governor knobs:
//              :set timeout MS | :set iterations N | :set tuples N |
//              :set fallback on|off
//            iterations 0 is the planner's default round-cap policy (see
//            core::RunOptions::max_iterations)
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
#include "datalog/parser.h"

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

/// Governor knobs adjustable with :set.
struct ReplSettings {
  core::RunOptions run;
  bool fallback = true;
};

/// Answer `program`'s one query with three magic counting methods and
/// bottom-up evaluation, each through the planner on a fresh database, and
/// print what each cost.
void RunDemo(const dl::Program& program,
             const analysis::CountingSafetyReport& safety) {
  std::printf("\nquery is %s (%s); running the magic counting methods:\n",
              std::string(analysis::QueryFormToString(safety.form)).c_str(),
              safety.signature.c_str());
  for (const char* spec :
       {"mc:basic:ind", "mc:multiple:int", "mc:smart:int", "bottom_up"}) {
    core::PlannerOptions options;
    static_cast<void>(core::ParseMethod(spec, &options));
    Database db;
    auto report = core::SolveProgram(&db, program, options);
    if (report.ok()) {
      std::printf("  %-16s %zu answer(s), %llu tuple reads (%s)\n", spec,
                  report->results.size(),
                  static_cast<unsigned long long>(report->stats.tuples_read),
                  report->attempts.back().method.c_str());
    } else {
      std::printf("  %-16s failed: %s\n", spec,
                  report.status().ToString().c_str());
    }
  }
}

/// Solve each query of `source` through the planner, one at a time and each
/// on a fresh database (the program's facts are its only data), printing
/// the plan and the answers. With `demo`, a query in the paper's class is
/// also answered by RunDemo.
Status SolveQueries(const std::string& source, const ReplSettings& settings,
                    bool demo) {
  MCM_ASSIGN_OR_RETURN(dl::Program program, dl::Parse(source));
  if (program.queries.empty()) {
    MCM_RETURN_NOT_OK(analysis::Analyze(program).ToStatus());
    std::printf("no query to solve\n");
    return Status::OK();
  }
  core::PlannerOptions options;
  options.run = settings.run;
  options.allow_fallback = settings.fallback;
  dl::Program single = program;
  for (const dl::Query& query : program.queries) {
    single.queries = {query};
    Database db;
    MCM_ASSIGN_OR_RETURN(core::PlanReport report,
                         core::SolveProgram(&db, single, options));
    if (report.attempts.size() > 1) {
      std::printf("attempts:\n");
      for (const core::PlanAttempt& a : report.attempts) {
        std::printf("  %s\n", a.ToString().c_str());
      }
    }
    std::printf("plan: %s [%s], %llu tuple reads\n",
                core::PlanKindToString(report.kind).c_str(),
                report.description.c_str(),
                static_cast<unsigned long long>(report.stats.tuples_read));
    PrintTuples(db, query.goal, report.results);
    if (demo &&
        report.safety.form != analysis::QueryForm::kNotStronglyLinear) {
      RunDemo(single, report.safety);
    }
  }
  return Status::OK();
}

int RunBatch(const std::string& source) {
  Status st = SolveQueries(source, ReplSettings{}, /*demo=*/true);
  return st.ok() ? 0 : Fail(st);
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

void HandleSet(const std::string& line, ReplSettings* settings) {
  std::istringstream in(line);
  std::string cmd, key, value;
  in >> cmd >> key >> value;
  if (key.empty()) {
    std::printf("timeout    %llu ms (0 = none)\n"
                "iterations %llu (0 = auto: n_L rounds for plain counting, "
                "%llu per stratum for the program's rules)\n"
                "tuples     %llu (0 = unlimited)\n"
                "fallback   %s\n",
                static_cast<unsigned long long>(settings->run.timeout_ms),
                static_cast<unsigned long long>(settings->run.max_iterations),
                static_cast<unsigned long long>(core::kProgramRoundCap),
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
      Status st = SolveQueries(program, settings, /*demo=*/false);
      if (!st.ok()) std::printf("error: %s\n", st.ToString().c_str());
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
