#include "core/direct.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "util/fault_injection.h"
#include "util/timer.h"

namespace mcm::core {

namespace {

struct PairHash {
  size_t operator()(const std::pair<int64_t, int64_t>& p) const {
    return static_cast<size_t>(
        HashCombine(HashMix64(static_cast<uint64_t>(p.first)),
                    static_cast<uint64_t>(p.second)));
  }
};

using PairSet = std::unordered_set<std::pair<int64_t, int64_t>, PairHash>;

/// Indexed P_C set: pairs (J, Y) with a worklist-driven descent
///   P_C(J-1, Y) :- P_C(J, Y1), R(Y, Y1), J > 0.
class CountingSide {
 public:
  explicit CountingSide(const Relation* r) : r_(r) {}

  void Add(int64_t j, Value y) {
    if (pc_.emplace(j, y).second) worklist_.emplace_back(j, y);
  }

  void Descend() {
    while (!worklist_.empty()) {
      auto [j, y1] = worklist_.back();
      worklist_.pop_back();
      if (j <= 0) continue;
      for (uint32_t id : std::vector<uint32_t>(r_->Probe({1}, {y1}))) {
        Add(j - 1, r_->PeekUnchecked(id)[0]);
      }
    }
  }

  std::vector<Value> AnswersAtZero() const {
    std::vector<Value> out;
    for (const auto& [j, y] : pc_) {
      if (j == 0) out.push_back(y);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  const Relation* r_;
  PairSet pc_;
  std::vector<std::pair<int64_t, Value>> worklist_;
};

/// Indexed P_M set: pairs (X, Y) with the bottom-up propagation
///   P_M(X, Y) :- parents(X) of X1 restricted to `parent_filter`,
///                P_M(X1, Y1), R(Y, Y1).
class MagicSide {
 public:
  MagicSide(const Relation* l, const Relation* r,
            const std::unordered_set<Value>* parent_filter)
      : l_(l), r_(r), parent_filter_(parent_filter) {}

  void Add(Value x, Value y) {
    if (pm_.emplace(x, y).second) {
      by_x_[x].push_back(y);
      worklist_.emplace_back(x, y);
    }
  }

  void Propagate() {
    while (!worklist_.empty()) {
      auto [x1, y1] = worklist_.back();
      worklist_.pop_back();
      // Parents of x1 through L (probe on the second column).
      for (uint32_t id : std::vector<uint32_t>(l_->Probe({1}, {x1}))) {
        Value x = l_->PeekUnchecked(id)[0];
        if (parent_filter_->count(x) == 0) continue;
        for (uint32_t rid : std::vector<uint32_t>(r_->Probe({1}, {y1}))) {
          Add(x, r_->PeekUnchecked(rid)[0]);
        }
      }
    }
  }

  const std::vector<Value>* ResultsFor(Value x) const {
    auto it = by_x_.find(x);
    return it == by_x_.end() ? nullptr : &it->second;
  }

 private:
  const Relation* l_;
  const Relation* r_;
  const std::unordered_set<Value>* parent_filter_;
  PairSet pm_;
  std::unordered_map<Value, std::vector<Value>> by_x_;
  std::vector<std::pair<Value, Value>> worklist_;
};

struct Relations {
  Relation* l;
  Relation* e;
  Relation* r;
};

Result<Relations> LookupRelations(Database* db, const std::string& l,
                                  const std::string& e,
                                  const std::string& r) {
  Relations rel;
  MCM_ASSIGN_OR_RETURN(rel.l, db->Get(l));
  MCM_ASSIGN_OR_RETURN(rel.e, db->Get(e));
  MCM_ASSIGN_OR_RETURN(rel.r, db->Get(r));
  if (rel.l->arity() != 2 || rel.e->arity() != 2 || rel.r->arity() != 2) {
    return Status::InvalidArgument("L, E, R must be binary");
  }
  return rel;
}

void FillStats(Database* db, const AccessStats& before, Timer* timer,
               MethodRun* run) {
  AccessStats after = db->stats();
  run->total.tuples_read = after.tuples_read - before.tuples_read;
  run->step2.tuples_read =
      run->total.tuples_read - run->step1.tuples_read;
  run->seconds = timer->ElapsedSeconds();
}

}  // namespace

Result<MethodRun> DirectCounting(Database* db, const std::string& l,
                                 const std::string& e, const std::string& r,
                                 Value a, const RunOptions& options) {
  MCM_ASSIGN_OR_RETURN(Relations rel, LookupRelations(db, l, e, r));
  AccessStats before = db->stats();
  Timer timer;
  MethodRun run;
  run.method = "direct/counting";

  // Same level cap as the engine path's round cap.
  uint64_t level_cap = CountingRoundCap(options, rel.l, a);
  runtime::ExecutionContext local_ctx;
  const runtime::ExecutionContext* ctx = options.context;
  if (ctx == nullptr && options.timeout_ms > 0) {
    local_ctx = runtime::ExecutionContext::WithTimeout(options.timeout_ms);
    ctx = &local_ctx;
  }

  if (ctx != nullptr) {
    MCM_RETURN_NOT_OK(ctx->CheckStatus("direct counting (startup)"));
  }

  // Counting-set BFS over (index, node) pairs — may diverge on cycles.
  PairSet cs;
  std::deque<std::pair<int64_t, Value>> frontier;
  cs.emplace(0, a);
  frontier.emplace_back(0, a);
  CountingSide pc(rel.r);
  uint64_t pops = 0;
  while (!frontier.empty()) {
    auto [j, x] = frontier.front();
    frontier.pop_front();
    MCM_FAULT_POINT("direct/round");
    // Governor poll, amortized: the deadline/cancellation clock check is
    // hoisted off every pop.
    if (ctx != nullptr && (++pops & 63) == 0) {
      MCM_RETURN_NOT_OK(ctx->CheckStatus("direct counting (level " +
                                         std::to_string(j) + ")"));
    }
    if (static_cast<uint64_t>(j) > level_cap) {
      return Status::Unsafe(
          "counting-set fixpoint exceeded level cap (iteration cap " +
          std::to_string(level_cap) + ") — divergent on cyclic magic graph");
    }
    if (options.max_tuples != 0 && cs.size() > options.max_tuples) {
      return Status::Unsafe(
          "counting-set fixpoint exceeded tuple cap (" +
          std::to_string(options.max_tuples) + ")");
    }
    if (options.max_memory_bytes != 0 &&
        cs.size() * (sizeof(std::pair<int64_t, Value>) + 32) >
            options.max_memory_bytes) {
      return Status::Unsafe(
          "counting-set fixpoint exceeded memory budget (" +
          std::to_string(options.max_memory_bytes) + " bytes)");
    }
    // Exit rule: P_C(J, Y) :- CS(J, X), E(X, Y).
    for (uint32_t id : std::vector<uint32_t>(rel.e->Probe({0}, {x}))) {
      pc.Add(j, rel.e->PeekUnchecked(id)[1]);
    }
    // CS(J+1, X1) :- CS(J, X), L(X, X1).
    for (uint32_t id : std::vector<uint32_t>(rel.l->Probe({0}, {x}))) {
      Value x1 = rel.l->PeekUnchecked(id)[1];
      if (cs.emplace(j + 1, x1).second) frontier.emplace_back(j + 1, x1);
    }
  }
  pc.Descend();
  run.answers = pc.AnswersAtZero();
  run.step2_iterations = cs.size();
  FillStats(db, before, &timer, &run);
  return run;
}

Result<MethodRun> DirectMagicSets(Database* db, const std::string& l,
                                  const std::string& e, const std::string& r,
                                  Value a, const RunOptions& options) {
  (void)options;
  MCM_ASSIGN_OR_RETURN(Relations rel, LookupRelations(db, l, e, r));
  AccessStats before = db->stats();
  Timer timer;
  MethodRun run;
  run.method = "direct/magic_sets";

  // Magic set: plain BFS over nodes.
  std::unordered_set<Value> ms{a};
  std::deque<Value> frontier{a};
  while (!frontier.empty()) {
    Value x = frontier.front();
    frontier.pop_front();
    for (uint32_t id : std::vector<uint32_t>(rel.l->Probe({0}, {x}))) {
      Value x1 = rel.l->PeekUnchecked(id)[1];
      if (ms.insert(x1).second) frontier.push_back(x1);
    }
  }
  run.ms_size = ms.size();

  MagicSide pm(rel.l, rel.r, &ms);
  // Exit rule: P_M(X, Y) :- MS(X), E(X, Y).
  for (Value x : ms) {
    for (uint32_t id : std::vector<uint32_t>(rel.e->Probe({0}, {x}))) {
      pm.Add(x, rel.e->PeekUnchecked(id)[1]);
    }
  }
  pm.Propagate();

  if (const std::vector<Value>* res = pm.ResultsFor(a)) {
    run.answers = *res;
    std::sort(run.answers.begin(), run.answers.end());
    run.answers.erase(std::unique(run.answers.begin(), run.answers.end()),
                      run.answers.end());
  }
  FillStats(db, before, &timer, &run);
  return run;
}

Result<MethodRun> DirectMagicCounting(Database* db, const std::string& l,
                                      const std::string& e,
                                      const std::string& r, Value a,
                                      McVariant variant, McMode mode,
                                      const RunOptions& options) {
  MCM_ASSIGN_OR_RETURN(Relations rel, LookupRelations(db, l, e, r));
  AccessStats before = db->stats();
  Timer timer;
  MethodRun run;
  run.method = "direct/mc/" + McVariantToString(variant) + "/" +
               McModeToString(mode);

  // --- Step 1 (shared with the engine path; already direct). ---
  WorkNames names;
  MCM_ASSIGN_OR_RETURN(
      Step1Result s1,
      ComputeReducedSets(db, l, a, variant, mode, names, options.detection));
  run.ms_size = s1.ms_size;
  run.rm_size = s1.rm_size;
  run.rc_size = s1.rc_size;
  run.detected_class = s1.detected;
  run.step1.tuples_read = db->stats().tuples_read - before.tuples_read;

  // Read the reduced sets (instrumented scans: Step 2 retrieves them like
  // any database relation).
  std::unordered_set<Value> rm_set;
  for (const Tuple& t : db->Find(names.rm)->Scan()) rm_set.insert(t[0]);
  std::vector<std::pair<int64_t, Value>> rc;
  for (const Tuple& t : db->Find(names.rc)->Scan()) {
    rc.emplace_back(t[0], t[1]);
  }
  std::unordered_set<Value> ms_set;
  for (const Tuple& t : db->Find(names.ms)->Scan()) ms_set.insert(t[0]);

  CountingSide pc(rel.r);

  if (mode == McMode::kIndependent) {
    // P_C(J, Y) :- RC(J, X), E(X, Y).
    for (auto [j, x] : rc) {
      for (uint32_t id : std::vector<uint32_t>(rel.e->Probe({0}, {x}))) {
        pc.Add(j, rel.e->PeekUnchecked(id)[1]);
      }
    }
    pc.Descend();
    // Magic side over RM exits, recursing through all of MS.
    MagicSide pm(rel.l, rel.r, &ms_set);
    for (Value x : rm_set) {
      for (uint32_t id : std::vector<uint32_t>(rel.e->Probe({0}, {x}))) {
        pm.Add(x, rel.e->PeekUnchecked(id)[1]);
      }
    }
    pm.Propagate();

    run.answers = pc.AnswersAtZero();
    if (const std::vector<Value>* res = pm.ResultsFor(a)) {
      run.answers.insert(run.answers.end(), res->begin(), res->end());
    }
  } else {
    // Integrated: the magic side recurses only inside RM ...
    MagicSide pm(rel.l, rel.r, &rm_set);
    for (Value x : rm_set) {
      for (uint32_t id : std::vector<uint32_t>(rel.e->Probe({0}, {x}))) {
        pm.Add(x, rel.e->PeekUnchecked(id)[1]);
      }
    }
    pm.Propagate();
    // ... and its results transfer into the counting side:
    // P_C(J, Y) :- RC(J, X), L(X, X1), P_M(X1, Y1), R(Y, Y1).
    for (auto [j, x] : rc) {
      for (uint32_t id : std::vector<uint32_t>(rel.l->Probe({0}, {x}))) {
        Value x1 = rel.l->PeekUnchecked(id)[1];
        const std::vector<Value>* results = pm.ResultsFor(x1);
        if (results == nullptr) continue;
        for (Value y1 : *results) {
          for (uint32_t rid : std::vector<uint32_t>(rel.r->Probe({1}, {y1}))) {
            pc.Add(j, rel.r->PeekUnchecked(rid)[0]);
          }
        }
      }
    }
    // P_C(J, Y) :- RC(J, X), E(X, Y).
    for (auto [j, x] : rc) {
      for (uint32_t id : std::vector<uint32_t>(rel.e->Probe({0}, {x}))) {
        pc.Add(j, rel.e->PeekUnchecked(id)[1]);
      }
    }
    pc.Descend();
    run.answers = pc.AnswersAtZero();
  }

  std::sort(run.answers.begin(), run.answers.end());
  run.answers.erase(std::unique(run.answers.begin(), run.answers.end()),
                    run.answers.end());
  FillStats(db, before, &timer, &run);
  return run;
}

}  // namespace mcm::core
