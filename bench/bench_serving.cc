// Serving-path cost of EDB seeding: Submit-to-answer throughput of the
// store-backed QueryService, whose requests seed their working databases
// with the zero-copy EdbView borrow.
//
// Each request's working database is seeded from the pinned EDB version
// before the planner runs: the EdbView path installs one borrow per
// relation (O(#relations), storage/edb_view.h), so seeding cost must stay
// flat as |EDB| grows (EXPERIMENTS.md compares it with a per-attempt deep
// copy). This benchmark drives the service over a same-generation EDB
// sweep and a payload sweep; results land in BENCH_bench_serving.json:
//   qps        Submit-to-answer requests per second (the items/s rate)
//   edb_tuples size of the base EDB each request is seeded with
//   answers    per-request answer count
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "service/query_service.h"
#include "storage/database.h"
#include "storage/versioned_store.h"
#include "workload/generators.h"

namespace mcm::bench {
namespace {

constexpr size_t kBatch = 16;  ///< in-flight requests per iteration

void ServingSubmitToAnswer(benchmark::State& state) {
  size_t people = static_cast<size_t>(state.range(0));

  workload::CslData data = workload::MakeSameGeneration(people, 2, 97);
  Database db;
  data.Load(&db);

  VersionedStore store;  // in-memory: versioning + hot-swap, no WAL
  if (!store.Recover().ok()) {
    state.SkipWithError("store recovery failed");
    return;
  }
  Result<uint64_t> boot = store.BootstrapFromDatabase(db);
  if (!boot.ok()) {
    state.SkipWithError(boot.status().ToString().c_str());
    return;
  }

  service::ServiceOptions opts;
  opts.workers = 4;
  service::QueryService svc(&store, opts);

  const std::string src = "p(X, Y) :- e(X, Y).\n"
                          "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n"
                          "p(" +
                          std::to_string(data.source) + ", Y)?";

  size_t answers = 0;
  for (auto _ : state) {
    std::vector<std::shared_ptr<service::QueryTicket>> tickets;
    tickets.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      service::QueryRequest req;
      req.program_text = src;
      tickets.push_back(svc.Submit(std::move(req)));
    }
    for (auto& t : tickets) {
      service::QueryResponse resp = t->Get();
      if (resp.outcome != service::Outcome::kOk) {
        state.SkipWithError(resp.status.ToString().c_str());
        return;
      }
      answers = resp.report.results.size();
    }
  }
  svc.Shutdown(/*drain=*/true);

  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
  state.counters["edb_tuples"] =
      static_cast<double>(data.m_l() + data.m_e() + data.m_r());
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBatch),
      benchmark::Counter::kIsRate);
}

void Args(benchmark::internal::Benchmark* b) {
  for (long people : {300, 1000, 3000}) b->Arg(people);
  b->ArgName("people");
  b->Unit(benchmark::kMillisecond);
  b->UseRealTime();  // worker pool: wall clock is the serving metric
}

BENCHMARK(ServingSubmitToAnswer)->Apply(Args);

// Seeding cost in isolation: a small query served from a store that also
// holds a large payload relation the query never touches — the common
// shape once one store serves many query families. The EdbView borrow
// pays O(#relations), so its time stays flat across the payload sweep.
void ServingSeedCost(benchmark::State& state) {
  size_t payload = static_cast<size_t>(state.range(0));

  workload::CslData data = workload::MakeFigure1Style();
  Database db;
  data.Load(&db);
  Relation* pad = db.GetOrCreateRelation("payload", 2);
  for (size_t i = 0; i < payload; ++i) {
    pad->Insert2(static_cast<Value>(i), static_cast<Value>(i));
  }

  VersionedStore store;
  if (!store.Recover().ok()) {
    state.SkipWithError("store recovery failed");
    return;
  }
  Result<uint64_t> boot = store.BootstrapFromDatabase(db);
  if (!boot.ok()) {
    state.SkipWithError(boot.status().ToString().c_str());
    return;
  }

  service::ServiceOptions opts;
  opts.workers = 4;
  service::QueryService svc(&store, opts);

  const std::string src = "p(X, Y) :- e(X, Y).\n"
                          "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n"
                          "p(" +
                          std::to_string(data.source) + ", Y)?";

  for (auto _ : state) {
    std::vector<std::shared_ptr<service::QueryTicket>> tickets;
    tickets.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      service::QueryRequest req;
      req.program_text = src;
      tickets.push_back(svc.Submit(std::move(req)));
    }
    for (auto& t : tickets) {
      service::QueryResponse resp = t->Get();
      if (resp.outcome != service::Outcome::kOk) {
        state.SkipWithError(resp.status.ToString().c_str());
        return;
      }
    }
  }
  svc.Shutdown(/*drain=*/true);

  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
  state.counters["edb_tuples"] = static_cast<double>(
      data.m_l() + data.m_e() + data.m_r() + payload);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBatch),
      benchmark::Counter::kIsRate);
}

void SeedArgs(benchmark::internal::Benchmark* b) {
  for (long payload : {10000, 100000, 300000}) b->Arg(payload);
  b->ArgName("payload");
  b->Unit(benchmark::kMillisecond);
  b->UseRealTime();
}

BENCHMARK(ServingSeedCost)->Apply(SeedArgs);

}  // namespace
}  // namespace mcm::bench

BENCHMARK_MAIN();
