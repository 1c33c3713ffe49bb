// perfbench-replay: the in-process half of the serving benchmark.
//
// run.py drives mcm-serve over loopback for the end-to-end figures; this
// tool replays the same generated inputs inside one process, single
// threaded, and times the public call into each layer around it. The spans
// live here, in the benchmark's own files, not inside the engine.
//
// Usage:
//   perfbench-replay WORKDIR [--requests N] [--detail D] [--interleave K]
//                    [--commits C] [--store DIR] [--bootstrap-reps R]
//                    [--check PAIRS]
//
// WORKDIR holds what run.py generated:
//   rules.dl      the rules every request carries (no query)
//   facts.txt     one "name<TAB>file.tsv" line per EDB relation
//   requests.txt  the request sequence, one query constant per line
//   updates.txt   the writer's batches, one "UPDATE +l(u, v); -l(x, y)" line
//                 each, in send order
//
// What it does, in order:
//   1. bootstrap: LoadRelationTsv per relation + BootstrapFromDatabase,
//      R times (a fresh store each time; --store puts each on disk);
//   2. --check: for every "epoch constant" line of PAIRS, the reference
//      answer count of p(constant, Y)? on the EDB as of that epoch
//      (bootstrap = epoch 1, batch k of updates.txt = epoch k + 1), from
//      CslSolver::RunReference — bottom-up evaluation of the original
//      program — over the part of the EDB the query can reach;
//   3. replay the first N requests. Every K requests (--interleave) the
//      next writer batch is committed first, so counts are exact. Each
//      request is split at the layer boundaries the service crosses:
//      protocol, parse, seed, analyze, solve, teardown. The first D of them
//      (--detail) also run through an in-process QueryService (the
//      coverage denominator) and have their layers measured once more in
//      isolation: magic-graph build, index builds, Step 1, Step 2;
//   4. with --commits C, commit the first C writer batches after the
//      replay and time each (the writer path of workloads without one).
//
// Prints one JSON object with the raw per-request samples; run.py turns
// them into metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "core/planner.h"
#include "core/solver.h"
#include "core/step1.h"
#include "datalog/parser.h"
#include "graph/classify.h"
#include "graph/query_graph.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "storage/edb_view.h"
#include "storage/io.h"
#include "storage/versioned_store.h"
#include "util/string_util.h"

using namespace mcm;

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench-replay: %s\n", msg.c_str());
  std::exit(1);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> out;
  std::istringstream in(ReadFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (!Trim(line).empty()) out.push_back(line);
  }
  return out;
}

Value ParseValue(std::string_view text) {
  std::string s(Trim(text));
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end == nullptr || *end != '\0') {
    Die("not an integer: '" + s + "'");
  }
  return static_cast<Value>(v);
}

/// One writer op on a binary relation: "+l(u, v)" or "-l(u, v)".
struct EdgeOp {
  bool insert = true;
  std::string relation;
  Value a = 0, b = 0;
};

/// Parse one "UPDATE op; op; ..." line of updates.txt (the exact text the
/// writer sends over the wire).
std::vector<EdgeOp> ParseUpdateLine(std::string_view line) {
  line = Trim(line);
  if (!StartsWith(line, "UPDATE ")) Die("bad update line");
  std::vector<EdgeOp> ops;
  for (const std::string& raw : Split(line.substr(7), ';')) {
    std::string_view op = Trim(raw);
    if (op.empty()) continue;
    size_t open = op.find('('), comma = op.find(',');
    if ((op[0] != '+' && op[0] != '-') || open == std::string_view::npos ||
        comma == std::string_view::npos || op.back() != ')') {
      Die("bad update op '" + std::string(op) + "'");
    }
    EdgeOp e;
    e.insert = op[0] == '+';
    e.relation = std::string(Trim(op.substr(1, open - 1)));
    e.a = ParseValue(op.substr(open + 1, comma - open - 1));
    e.b = ParseValue(op.substr(comma + 1, op.size() - comma - 2));
    ops.push_back(std::move(e));
  }
  return ops;
}

UpdateBatch ToBatch(const std::vector<EdgeOp>& ops) {
  UpdateBatch batch;
  for (const EdgeOp& e : ops) {
    std::vector<std::string> fields{std::to_string(e.a), std::to_string(e.b)};
    if (e.insert) {
      batch.Insert(e.relation, std::move(fields));
    } else {
      batch.Delete(e.relation, std::move(fields));
    }
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Reference answers.

/// The EDB as adjacency sets, advanced batch by batch.
struct Graph {
  std::unordered_map<Value, std::vector<Value>> l_out;  ///< l(x, y): x -> y
  std::unordered_map<Value, std::vector<Value>> e_out;  ///< e(x, z): x -> z
  std::unordered_map<Value, std::vector<Value>> r_in;   ///< r(y, y1): y1 -> y

  static void Add(std::unordered_map<Value, std::vector<Value>>* adj, Value k,
                  Value v) {
    std::vector<Value>& list = (*adj)[k];
    if (std::find(list.begin(), list.end(), v) == list.end()) list.push_back(v);
  }
  static void Remove(std::unordered_map<Value, std::vector<Value>>* adj,
                     Value k, Value v) {
    auto it = adj->find(k);
    if (it == adj->end()) return;
    it->second.erase(std::remove(it->second.begin(), it->second.end(), v),
                     it->second.end());
  }

  void Apply(const EdgeOp& op) {
    std::unordered_map<Value, std::vector<Value>>* adj = nullptr;
    Value k = op.a, v = op.b;
    if (op.relation == "l") {
      adj = &l_out;
    } else if (op.relation == "e") {
      adj = &e_out;
    } else if (op.relation == "r") {
      adj = &r_in;
      std::swap(k, v);
    } else {
      return;  // relations the query never reads
    }
    if (op.insert) {
      Add(adj, k, v);
    } else {
      Remove(adj, k, v);
    }
  }
};

const std::vector<Value>& Neighbors(
    const std::unordered_map<Value, std::vector<Value>>& adj, Value k) {
  static const std::vector<Value> kNone;
  auto it = adj.find(k);
  return it == adj.end() ? kNone : it->second;
}

/// The part of the EDB that p(c, Y)? can reach from a set of constants:
/// the L-nodes reachable over l, and the R-nodes an answer walk visits (the
/// e-targets of those L-nodes, closed upwards over r). No derivation of
/// p(c, Y) uses an arc outside it.
struct QueryPart {
  std::unordered_set<Value> ms;  ///< L-nodes
  std::unordered_set<Value> rs;  ///< R-nodes
};

QueryPart Reach(const Graph& g, const std::set<Value>& constants) {
  QueryPart q;
  q.ms.insert(constants.begin(), constants.end());
  std::vector<Value> frontier(constants.begin(), constants.end());
  while (!frontier.empty()) {
    Value x = frontier.back();
    frontier.pop_back();
    for (Value y : Neighbors(g.l_out, x)) {
      if (q.ms.insert(y).second) frontier.push_back(y);
    }
  }
  for (Value x : q.ms) {
    for (Value z : Neighbors(g.e_out, x)) {
      if (q.rs.insert(z).second) frontier.push_back(z);
    }
  }
  while (!frontier.empty()) {
    Value y1 = frontier.back();
    frontier.pop_back();
    for (Value y : Neighbors(g.r_in, y1)) {
      if (q.rs.insert(y).second) frontier.push_back(y);
    }
  }
  return q;
}

/// Order-independent 128-bit fingerprint of the arcs inside `q`: equal
/// fingerprints of one constant at two epochs mean the same answers.
std::pair<uint64_t, uint64_t> Fingerprint(const Graph& g, const QueryPart& q) {
  std::pair<uint64_t, uint64_t> fp{0, 0};
  auto add = [&fp](uint64_t rel, Value a, Value b) {
    uint64_t h = HashCombine(HashCombine(rel, static_cast<uint64_t>(a)),
                             static_cast<uint64_t>(b));
    fp.first += HashMix64(h);
    fp.second += HashMix64(h ^ 0x5bd1e9955bd1e995ULL);
  };
  for (Value x : q.ms) {
    for (Value y : Neighbors(g.l_out, x)) add(1, x, y);
    for (Value z : Neighbors(g.e_out, x)) add(2, x, z);
  }
  for (Value y1 : q.rs) {
    for (Value y : Neighbors(g.r_in, y1)) add(3, y, y1);
  }
  return fp;
}

/// Answer counts of p(c, Y)? for every constant in `constants`, from one
/// RunReference over the part of the EDB they reach; the counts equal those
/// on the whole EDB.
std::map<Value, size_t> ReferenceCounts(const Graph& g,
                                        const std::set<Value>& constants) {
  QueryPart q = Reach(g, constants);
  Database db;
  Relation* l = db.GetOrCreateRelation("l", 2);
  Relation* e = db.GetOrCreateRelation("e", 2);
  Relation* r = db.GetOrCreateRelation("r", 2);
  for (Value x : q.ms) {
    for (Value y : Neighbors(g.l_out, x)) l->Insert2(x, y);
    for (Value z : Neighbors(g.e_out, x)) e->Insert2(x, z);
  }
  for (Value y1 : q.rs) {
    for (Value y : Neighbors(g.r_in, y1)) r->Insert2(y, y1);
  }

  core::CslSolver solver(&db, "l", "e", "r", *constants.begin());
  Result<core::MethodRun> run = solver.RunReference();
  if (!run.ok()) Die("reference run: " + run.status().ToString());
  std::map<Value, size_t> counts;
  for (Value c : constants) counts[c] = 0;
  // RunReference leaves the whole p relation (mcm_p) behind: one bottom-up
  // run answers every constant at once.
  const Relation* p = db.Find(solver.csl().p);
  if (p == nullptr) Die("reference run left no p relation");
  for (const Tuple& t : p->TuplesUnchecked()) {
    auto it = counts.find(t[0]);
    if (it != counts.end()) ++it->second;
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Replay.

/// Raw per-request samples, written out once at the end.
struct Samples {
  std::map<std::string, std::vector<double>> series;
  std::vector<std::string> methods;
  void Add(const std::string& name, double v) { series[name].push_back(v); }
};

core::McVariant VariantOf(const std::string& method, core::McMode* mode) {
  // "mc/<variant>/<mode>" as PlanAttempt::method spells it; anything else
  // (counting, magic_sets) has no Step 1 of its own, so the ladder's
  // default magic counting rung stands in.
  *mode = core::McMode::kIntegrated;
  if (!StartsWith(method, "mc/")) return core::McVariant::kMultiple;
  size_t slash = method.find('/', 3);
  std::string v = method.substr(3, slash - 3);
  if (slash != std::string::npos && method.substr(slash + 1) == "independent") {
    *mode = core::McMode::kIndependent;
  }
  for (core::McVariant cand :
       {core::McVariant::kBasic, core::McVariant::kSingle,
        core::McVariant::kMultiple, core::McVariant::kRecurring,
        core::McVariant::kRecurringSmart}) {
    if (core::McVariantToString(cand) == v) return cand;
  }
  Die("unknown method '" + method + "'");
}

/// A working database seeded from the pinned version, as the service seeds
/// one per request.
std::unique_ptr<Database> Seed(VersionedStore* store,
                               const std::shared_ptr<const EdbVersion>& pin) {
  auto work = std::make_unique<Database>(&store->symbols());
  Check(EdbView(*pin).AttachTo(work.get()), "seed");
  return work;
}

/// First probe on each relation the CSL programs read, on the columns they
/// bind: l and e by their first column, r by its second.
void BuildIndexes(Database* db, Value a) {
  db->Find("l")->Probe({0}, {a});
  db->Find("e")->Probe({0}, {a});
  db->Find("r")->Probe({1}, {a});
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += StringPrintf(i ? ", %.9g" : "%.9g", values[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench-replay WORKDIR [--requests N] "
                 "[--detail D] [--interleave K] [--commits C] [--store DIR] "
                 "[--bootstrap-reps R] [--check PAIRS]\n");
    return 2;
  }
  const std::string dir = argv[1];
  size_t requests_n = 0, detail_n = 0, interleave = 0, commits = 0;
  size_t bootstrap_reps = 1;
  std::string store_dir, check_path;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--requests") {
      requests_n = static_cast<size_t>(ParseValue(next()));
    } else if (arg == "--interleave") {
      interleave = static_cast<size_t>(ParseValue(next()));
    } else if (arg == "--commits") {
      commits = static_cast<size_t>(ParseValue(next()));
    } else if (arg == "--bootstrap-reps") {
      bootstrap_reps = std::max<size_t>(1, ParseValue(next()));
    } else if (arg == "--detail") {
      detail_n = static_cast<size_t>(ParseValue(next()));
    } else if (arg == "--store") {
      store_dir = next();
    } else if (arg == "--check") {
      check_path = next();
    } else {
      Die("unknown option '" + arg + "'");
    }
  }

  const std::string rules = ReadFile(dir + "/rules.dl");
  std::vector<std::pair<std::string, std::string>> facts;
  for (const std::string& line : ReadLines(dir + "/facts.txt")) {
    std::vector<std::string> parts = Split(line, '\t');
    if (parts.size() != 2) Die("bad facts.txt line '" + line + "'");
    facts.emplace_back(parts[0], dir + "/" + parts[1]);
  }
  std::vector<Value> constants;
  for (const std::string& line : ReadLines(dir + "/requests.txt")) {
    constants.push_back(ParseValue(line));
  }
  std::vector<std::string> update_lines = ReadLines(dir + "/updates.txt");
  std::vector<std::vector<EdgeOp>> batches;
  for (const std::string& line : update_lines) {
    batches.push_back(ParseUpdateLine(line));
  }
  requests_n = std::min(requests_n, constants.size());

  // 1. Bootstrap, as mcm-serve starts: load every TSV, then one commit.
  std::vector<double> bootstrap_s;
  std::unique_ptr<Database> staging;
  std::unique_ptr<VersionedStore> store;
  for (size_t rep = 0; rep < bootstrap_reps; ++rep) {
    VersionedStore::Options sopts;
    if (!store_dir.empty()) {
      sopts.dir = store_dir + "/boot" + std::to_string(rep);
    }
    store.reset();
    staging.reset();
    Clock::time_point t0 = Clock::now();
    staging = std::make_unique<Database>();
    for (const auto& [name, path] : facts) {
      Check(LoadRelationTsv(staging.get(), name, path), "load " + path);
    }
    store = std::make_unique<VersionedStore>(sopts);
    Check(store->Recover(), "recover");
    Result<uint64_t> boot = store->BootstrapFromDatabase(*staging);
    if (!boot.ok()) Die("bootstrap: " + boot.status().ToString());
    bootstrap_s.push_back(MicrosSince(t0) / 1e6);
  }

  // 2. Reference answers for the (epoch, constant) pairs the wire run saw.
  std::vector<std::tuple<uint64_t, Value, size_t>> checked;
  if (!check_path.empty()) {
    std::map<uint64_t, std::set<Value>> wanted;
    for (const std::string& line : ReadLines(check_path)) {
      std::vector<std::string> parts = Split(Trim(line), ' ');
      if (parts.size() != 2) Die("bad pairs line '" + line + "'");
      wanted[static_cast<uint64_t>(ParseValue(parts[0]))].insert(
          ParseValue(parts[1]));
    }
    Graph g;
    for (const char* name : {"l", "e", "r"}) {
      const Relation* rel = staging->Find(name);
      if (rel == nullptr) Die(std::string("no relation ") + name);
      for (const Tuple& t : rel->TuplesUnchecked()) {
        g.Apply(EdgeOp{true, name, t[0], t[1]});
      }
    }
    // A constant whose reachable part did not change since an epoch already
    // evaluated keeps that epoch's count; the rest share one reference run.
    std::map<std::pair<Value, std::pair<uint64_t, uint64_t>>, size_t> known;
    uint64_t epoch = 1;
    for (const auto& [want_epoch, consts] : wanted) {
      if (want_epoch < 1 || want_epoch > batches.size() + 1) {
        Die("answer epoch " + std::to_string(want_epoch) +
            " outside the generated history");
      }
      for (; epoch < want_epoch; ++epoch) {
        for (const EdgeOp& op : batches[epoch - 1]) g.Apply(op);
      }
      std::set<Value> todo;
      std::map<Value, std::pair<uint64_t, uint64_t>> prints;
      for (Value c : consts) {
        prints[c] = Fingerprint(g, Reach(g, {c}));
        auto it = known.find({c, prints[c]});
        if (it != known.end()) {
          checked.emplace_back(want_epoch, c, it->second);
        } else {
          todo.insert(c);
        }
      }
      if (todo.empty()) continue;
      for (const auto& [c, n] : ReferenceCounts(g, todo)) {
        known[{c, prints[c]}] = n;
        checked.emplace_back(want_epoch, c, n);
      }
    }
  }

  // 3. Replay.
  Samples s;
  std::vector<double> commit_us;
  size_t next_batch = 0;
  auto commit_next = [&]() {
    if (next_batch >= batches.size()) Die("ran out of writer batches");
    UpdateBatch batch = ToBatch(batches[next_batch++]);
    Clock::time_point t0 = Clock::now();
    Result<uint64_t> epoch = store->Commit(batch);
    commit_us.push_back(MicrosSince(t0));
    if (!epoch.ok()) Die("commit: " + epoch.status().ToString());
  };

  std::unique_ptr<service::QueryService> svc;
  if (detail_n > 0) {
    service::ServiceOptions sopts;
    sopts.workers = 1;
    svc = std::make_unique<service::QueryService>(store.get(), sopts);
  }
  const service::protocol::LineLimits limits;
  for (size_t i = 0; i < requests_n; ++i) {
    if (interleave > 0 && i > 0 && i % interleave == 0) commit_next();
    const Value a = constants[i];
    const std::string line = "p(" + std::to_string(a) + ", Y)?";
    const bool detail = i < detail_n;

    if (detail) {
      // The same request through the whole in-process service: its
      // run_seconds is what the spans below must account for.
      auto prefixes = service::protocol::ParsePrefixes(line);
      service::QueryResponse resp =
          svc->Submit(service::protocol::MakeRequest(rules, *prefixes, "auto"))
              ->Get();
      if (resp.outcome != service::Outcome::kOk) {
        Die("service: " + resp.status.ToString());
      }
      s.Add("service_run_us", resp.run_seconds * 1e6);
    }

    Clock::time_point t0 = Clock::now();
    Check(service::protocol::SanitizeLine(line, limits), "sanitize");
    auto prefixes = service::protocol::ParsePrefixes(line);
    if (!prefixes.ok()) Die("prefixes: " + prefixes.status().ToString());
    service::QueryRequest req =
        service::protocol::MakeRequest(rules, *prefixes, "auto");
    double protocol_us = MicrosSince(t0);

    t0 = Clock::now();
    Result<dl::Program> program = dl::Parse(req.program_text);
    s.Add("parse_us", MicrosSince(t0));
    if (!program.ok()) Die("parse: " + program.status().ToString());

    t0 = Clock::now();
    std::shared_ptr<const EdbVersion> pin = store->Pin();
    std::unique_ptr<Database> work = Seed(store.get(), pin);
    s.Add("seed_us", MicrosSince(t0));

    t0 = Clock::now();
    analysis::AnalyzeOptions aopts;
    aopts.db = work.get();
    analysis::AnalysisResult analysis = analysis::Analyze(*program, aopts);
    s.Add("analyze_us", MicrosSince(t0));

    core::PlannerOptions popts = req.planner;
    popts.analysis = &analysis;
    AccessStats before = work->stats();
    t0 = Clock::now();
    Result<core::PlanReport> report = core::SolveProgram(work.get(), *program,
                                                         popts);
    s.Add("solve_us", MicrosSince(t0));
    if (!report.ok()) Die("solve: " + report.status().ToString());
    AccessStats after = work->stats();

    t0 = Clock::now();
    work.reset();
    s.Add("teardown_us", MicrosSince(t0));

    const std::string method = report->attempts.back().method;
    s.Add("reads", static_cast<double>(report->stats.tuples_read));
    s.Add("probes", static_cast<double>(after.probes - before.probes));
    s.Add("inserted",
          static_cast<double>(after.tuples_inserted - before.tuples_inserted));
    s.Add("insert_attempts",
          static_cast<double>(after.insert_attempts - before.insert_attempts));
    s.Add("answers", static_cast<double>(report->results.size()));
    s.Add("attempts", static_cast<double>(report->attempts.size()));
    s.Add("predicted", report->predicted_reads);
    s.methods.push_back(method);

    t0 = Clock::now();
    service::QueryResponse resp;
    resp.outcome = service::Outcome::kOk;
    resp.edb_epoch = pin->epoch();
    resp.report = std::move(*report);
    std::string answer = service::protocol::FormatResponse(i + 1, resp);
    s.Add("protocol_us", protocol_us + MicrosSince(t0));
    if (answer.empty()) Die("empty response line");

    if (!detail) continue;

    // The same request's layers once more, each on a fresh working
    // database so no layer inherits another's lazy indexes.
    {
      std::unique_ptr<Database> db = Seed(store.get(), pin);
      t0 = Clock::now();
      Result<graph::QueryGraph> qg = graph::QueryGraph::Build(
          *db->Find("l"), *db->Find("e"), *db->Find("r"), a);
      if (!qg.ok()) Die("query graph: " + qg.status().ToString());
      graph::MagicGraphAnalysis mga =
          graph::AnalyzeMagicGraph(qg->magic_graph(), qg->source());
      s.Add("graph_us", MicrosSince(t0));
      if (mga.node_class.size() != qg->n_l()) Die("magic graph mismatch");
    }
    {
      std::unique_ptr<Database> db = Seed(store.get(), pin);
      t0 = Clock::now();
      BuildIndexes(db.get(), a);
      s.Add("index_us", MicrosSince(t0));
    }
    core::McMode mode{};
    core::McVariant variant = VariantOf(method, &mode);
    double step1_us = 0;
    {
      std::unique_ptr<Database> db = Seed(store.get(), pin);
      BuildIndexes(db.get(), a);
      uint64_t reads0 = db->stats().tuples_read;
      t0 = Clock::now();
      Result<core::Step1Result> s1 =
          core::ComputeReducedSets(db.get(), "l", a, variant, mode);
      step1_us = MicrosSince(t0);
      if (!s1.ok()) Die("step 1: " + s1.status().ToString());
      s.Add("step1_us", step1_us);
      s.Add("step1_reads",
            static_cast<double>(db->stats().tuples_read - reads0));
    }
    {
      std::unique_ptr<Database> db = Seed(store.get(), pin);
      BuildIndexes(db.get(), a);
      core::CslSolver solver(db.get(), "l", "e", "r", a);
      t0 = Clock::now();
      Result<core::MethodRun> run =
          method == "counting"     ? solver.RunCounting()
          : method == "magic_sets" ? solver.RunMagicSets()
                                   : solver.RunMagicCounting(variant, mode);
      double method_us = MicrosSince(t0);
      if (!run.ok()) Die("method run: " + run.status().ToString());
      if (run->answers.size() != resp.report.results.size()) {
        Die("method run disagrees with the planner on " + line);
      }
      // Step 1 of a magic counting method ran inside the solver too; the
      // isolated Step-1 span above is its cost.
      bool has_step1 = StartsWith(method, "mc/");
      s.Add("step2_us", has_step1 ? method_us - step1_us : method_us);
      s.Add("step2_reads", static_cast<double>(run->step2.tuples_read));
    }
  }
  if (svc) svc->Shutdown(/*drain=*/true);
  for (size_t k = 0; k < commits; ++k) commit_next();

  // 4. Output.
  std::string out = "{\"bootstrap_s\": " + JsonList(bootstrap_s) +
                    ", \"commit_us\": " + JsonList(commit_us) +
                    ", \"check\": [";
  for (size_t i = 0; i < checked.size(); ++i) {
    const auto& [epoch, c, n] = checked[i];
    out += StringPrintf("%s[%llu, %lld, %zu]", i ? ", " : "",
                        static_cast<unsigned long long>(epoch),
                        static_cast<long long>(c), n);
  }
  out += "], \"methods\": [";
  for (size_t i = 0; i < s.methods.size(); ++i) {
    out += (i ? ", \"" : "\"") + s.methods[i] + "\"";
  }
  out += "], \"series\": {";
  bool first = true;
  for (const auto& [name, values] : s.series) {
    out += (first ? "\"" : ", \"") + name + "\": " + JsonList(values);
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
