// Deterministic chaos/soak harness for the concurrent query service.
//
// N workers versus a stream of randomized CSL queries over a shared EDB,
// while (a) a chaos thread keeps arming and re-arming fault-injection sites
// deep inside the engine, (b) a canceller thread cancels random in-flight
// tickets, and (c) a slice of the requests carries shrinking deadlines that
// expire at every stage of the pipeline. The harness asserts the service's
// contract, not any particular schedule:
//
//   * no crash, no deadlock (the run itself, under ASan/TSan in CI);
//   * every submitted request gets exactly one classified Outcome and the
//     stats counters add up (submitted == TerminalTotal);
//   * every successful response matches the single-threaded reference
//     answer for its (instance, query), computed with all faults disarmed.
//
// Scale knobs (soak profile in CI): MCM_CHAOS_REQUESTS, MCM_CHAOS_WORKERS.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "datalog/parser.h"
#include "service/query_service.h"
#include "storage/versioned_store.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/generators.h"

namespace mcm::service {
namespace {

using std::chrono::milliseconds;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long parsed = std::atol(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

/// The named instances loaded side by side into the shared base database
/// (relations l<i>/e<i>/r<i>) — a mix of well-behaved, cyclic (plain
/// counting diverges), and fully random shapes.
std::vector<workload::CslData> ChaosInstances() {
  std::vector<workload::CslData> out;
  out.push_back(workload::MakeFigure1Style());
  out.push_back(workload::MakeSameGeneration(/*people=*/24, /*max_parents=*/2,
                                             /*seed=*/11));
  {
    workload::CslData cyclic;
    cyclic.l = {{0, 1}, {1, 0}};
    cyclic.e = {{0, 100}, {1, 101}};
    cyclic.r = {{100, 101}};
    out.push_back(cyclic);
  }
  out.push_back(workload::MakeRandomCsl(/*l_nodes=*/12, /*l_arcs=*/20,
                                        /*r_nodes=*/12, /*r_arcs=*/20,
                                        /*e_arcs=*/8, /*seed=*/23));
  out.push_back(workload::MakeRandomCsl(/*l_nodes=*/8, /*l_arcs=*/16,
                                        /*r_nodes=*/8, /*r_arcs=*/16,
                                        /*e_arcs=*/6, /*seed=*/29));
  return out;
}

std::string CslProgram(size_t instance) {
  return StringPrintf(
      "p(X, Y) :- e%zu(X, Y).\n"
      "p(X, Y) :- l%zu(X, X1), p(X1, Y1), r%zu(Y, Y1).\n"
      "p(0, Y)?",
      instance, instance, instance);
}

/// Canonical form for answer comparison.
std::vector<Tuple> Canonical(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return tuples;
}

/// Single-threaded ground truth per instance, computed on a private
/// database with every fault site disarmed.
std::vector<Tuple> ReferenceAnswers(const workload::CslData& data) {
  Database db;
  data.Load(&db);
  auto prog = dl::Parse(
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\np(0, Y)?");
  EXPECT_TRUE(prog.ok());
  auto report = core::SolveProgram(&db, *prog, core::PlannerOptions{});
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return Canonical(report->results);
}

/// Engine-level sites the chaos thread keeps re-arming. "planner/*" tier
/// sites are deliberately excluded: they are path-dependent; the generic
/// ones below sit on every evaluation route.
const char* const kChaosSites[] = {
    "engine/stratum", "engine/round",  "engine/insert",
    "direct/round",   "solver/run",    "service/execute",
};

TEST(ChaosTest, ConcurrentRandomizedRequestsKeepTheContract) {
  const size_t kRequests = EnvSize("MCM_CHAOS_REQUESTS", 500);
  const size_t kWorkers = EnvSize("MCM_CHAOS_WORKERS", 8);

  std::vector<workload::CslData> instances = ChaosInstances();
  Database base;
  for (size_t i = 0; i < instances.size(); ++i) {
    instances[i].Load(&base, StringPrintf("l%zu", i), StringPrintf("e%zu", i),
                      StringPrintf("r%zu", i));
  }
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.BootstrapFromDatabase(base).ok());

  ServiceOptions opts;
  opts.workers = kWorkers;
  opts.queue_depth = kRequests;  // shedding is exercised via deadlines here
  opts.max_retries = 2;
  opts.retry_backoff_ms = 1;
  opts.total_memory_bytes = 64ull << 20;
  QueryService svc(&store, opts);

  struct Submitted {
    size_t instance;
    bool parse_error;
    std::shared_ptr<QueryTicket> ticket;
  };
  std::mutex tickets_mu;
  std::vector<Submitted> submitted;
  submitted.reserve(kRequests);
  std::atomic<bool> done{false};

  // Chaos thread: keep re-arming random sites with one-shot faults —
  // mostly transient (retryable), sometimes a cap-style abort (ladder
  // food), periodically a full disarm.
  std::thread chaos([&] {
    Rng rng(0xC4A05);
    auto& fi = util::FaultInjection::Instance();
    while (!done.load(std::memory_order_relaxed)) {
      const char* site = kChaosSites[rng.NextIndex(std::size(kChaosSites))];
      if (rng.NextBool(0.15)) {
        fi.DisarmAll();
      } else if (rng.NextBool(0.3)) {
        fi.Arm(site, Status::Unsafe("injected: iteration cap"),
               /*nth=*/rng.NextBounded(16) + 1);
      } else {
        fi.Arm(site, Status::Internal("injected transient fault"),
               /*nth=*/rng.NextBounded(16) + 1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    fi.DisarmAll();
  });

  // Canceller thread: cancel random tickets mid-flight (queued or running).
  std::thread canceller([&] {
    Rng rng(0xCA9CE1);
    while (!done.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(tickets_mu);
        if (!submitted.empty()) {
          submitted[rng.NextIndex(submitted.size())].ticket->Cancel();
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(800));
    }
  });

  Rng rng(0x5EED);
  for (size_t i = 0; i < kRequests; ++i) {
    Submitted s;
    s.instance = rng.NextIndex(instances.size());
    s.parse_error = rng.NextBool(0.05);

    QueryRequest req;
    req.program_text =
        s.parse_error ? "broken ((" : CslProgram(s.instance);
    if (rng.NextBool(0.3)) {
      // Shrinking deadlines: some generous, some that can expire while
      // queued or mid-run.
      req.timeout_ms = rng.NextBounded(30) + 1;
    } else if (rng.NextBool(0.5)) {
      req.timeout_ms = 2000;
    }
    if (rng.NextBool(0.4)) {
      req.planner.strategy = core::Strategy::kCounting;
    } else if (rng.NextBool(0.4)) {
      req.planner.strategy = core::Strategy::kAuto;
    }
    if (!s.parse_error && rng.NextBool(0.1)) {
      auto prog = dl::Parse(req.program_text);
      ASSERT_TRUE(prog.ok());
      req.program = std::move(*prog);
    }

    s.ticket = svc.Submit(std::move(req));
    ASSERT_NE(s.ticket, nullptr);
    {
      std::lock_guard<std::mutex> lock(tickets_mu);
      submitted.push_back(std::move(s));
    }
    if (rng.NextBool(0.2)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // Drain: every admitted request must complete; nothing may hang.
  svc.Shutdown(/*drain=*/true);
  done.store(true, std::memory_order_relaxed);
  chaos.join();
  canceller.join();
  util::FaultInjection::Instance().DisarmAll();

  // Ground truth with clean machinery.
  std::vector<std::vector<Tuple>> reference;
  reference.reserve(instances.size());
  for (const workload::CslData& data : instances) {
    reference.push_back(ReferenceAnswers(data));
  }

  std::map<Outcome, size_t> histogram;
  size_t ok_checked = 0;
  for (const Submitted& s : submitted) {
    // "Exactly one classified outcome": the future is ready post-drain and
    // yields a terminal outcome.
    ASSERT_TRUE(s.ticket->WaitFor(milliseconds(0)))
        << "ticket " << s.ticket->id() << " never resolved";
    QueryResponse resp = s.ticket->Get();
    ++histogram[resp.outcome];

    switch (resp.outcome) {
      case Outcome::kOk:
        EXPECT_TRUE(resp.status.ok());
        if (s.parse_error) {
          ADD_FAILURE() << "parse-error request reported kOk";
        } else {
          EXPECT_EQ(Canonical(resp.report.results), reference[s.instance])
              << "instance " << s.instance << " diverged from the "
              << "single-threaded reference";
          ++ok_checked;
        }
        break;
      case Outcome::kFailed:
        EXPECT_FALSE(resp.status.ok());
        break;
      case Outcome::kRejectedOverload:
        EXPECT_TRUE(resp.status.IsUnavailable()) << resp.status.ToString();
        EXPECT_FALSE(resp.ran());
        break;
      case Outcome::kDeadlineBeforeStart:
        EXPECT_TRUE(resp.status.IsDeadlineExceeded());
        EXPECT_FALSE(resp.ran());
        EXPECT_EQ(resp.run_seconds, 0.0);
        break;
      case Outcome::kCancelledBeforeStart:
        EXPECT_TRUE(resp.status.IsCancelled());
        EXPECT_FALSE(resp.ran());
        break;
      case Outcome::kDeadlineExceeded:
        EXPECT_TRUE(resp.status.IsDeadlineExceeded());
        break;
      case Outcome::kCancelled:
        EXPECT_TRUE(resp.status.IsCancelled());
        break;
    }
  }

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.TerminalTotal(), kRequests) << stats.ToString();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);

  // The histogram must agree with the counters request by request.
  EXPECT_EQ(histogram[Outcome::kOk], stats.ok);
  EXPECT_EQ(histogram[Outcome::kFailed], stats.failed);
  EXPECT_EQ(histogram[Outcome::kRejectedOverload], stats.rejected_overload);
  EXPECT_EQ(histogram[Outcome::kDeadlineBeforeStart],
            stats.deadline_before_start);
  EXPECT_EQ(histogram[Outcome::kCancelledBeforeStart],
            stats.cancelled_before_start);
  EXPECT_EQ(histogram[Outcome::kDeadlineExceeded], stats.deadline_exceeded);
  EXPECT_EQ(histogram[Outcome::kCancelled], stats.cancelled);

  // The run is only meaningful if a decent share of requests actually
  // completed and was cross-checked against the reference. Shed requests
  // never reached a worker - under sanitizer/CI slowdown predictive
  // shedding is the service doing its job, not chaos silencing it - so
  // judge coverage against the requests that had a chance to run.
  const std::size_t had_a_chance = kRequests - stats.rejected_overload;
  EXPECT_GT(ok_checked, had_a_chance / 20)
      << "chaos too aggressive - almost nothing completed: "
      << stats.ToString();
}

// Update storm: the hot-swap variant of the harness. A writer thread
// commits update batches into a VersionedStore as fast as it can while the
// worker pool answers queries and the chaos thread keeps injecting
// transient faults (exercising the retry path, which must re-answer from
// the SAME pinned version). The EDB is built so every epoch has a closed-
// form answer:
//
//   * grow/1 holds exactly {1..e} at epoch e (monotone inserts);
//   * flip/1 holds exactly {e} at epoch e (delete old + insert new, the
//     copy-on-write rebuild path).
//
// A kOk response reporting edb_epoch == e must therefore match those sets
// exactly; any torn read, cross-version mix, or retry that slid onto a
// newer tip produces a wrong cardinality or a stale element. Under
// ASan/TSan this doubles as a race check on the shared COW relation
// storage.
TEST(ChaosTest, UpdateStormAnswersMatchThePinnedVersion) {
  const size_t kRequests = EnvSize("MCM_CHAOS_REQUESTS", 400);
  const size_t kWorkers = EnvSize("MCM_CHAOS_WORKERS", 8);

  // In-memory store: versioning and hot-swap without the fsync tax.
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  {
    UpdateBatch setup;
    setup.CreateRelation("grow", 1);
    setup.Insert("grow", {"1"});
    setup.CreateRelation("flip", 1);
    setup.Insert("flip", {"1"});
    ASSERT_TRUE(store.Commit(setup).ok());  // epoch 1
  }

  ServiceOptions opts;
  opts.workers = kWorkers;
  opts.queue_depth = kRequests;
  opts.max_retries = 2;
  opts.retry_backoff_ms = 1;
  opts.total_memory_bytes = 64ull << 20;
  QueryService svc(&store, opts);

  std::atomic<bool> done{false};
  std::atomic<bool> writer_ok{true};

  // Writer thread: one commit per loop, each preserving the per-epoch
  // closed forms above. Single writer, so TipEpoch()+1 is race-free.
  std::thread writer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const uint64_t next = store.TipEpoch() + 1;
      UpdateBatch b;
      b.Insert("grow", {std::to_string(next)});
      b.Delete("flip", {std::to_string(next - 1)});
      b.Insert("flip", {std::to_string(next)});
      Result<uint64_t> r = store.Commit(b);
      if (!r.ok() || *r != next) {
        writer_ok.store(false, std::memory_order_relaxed);
        ADD_FAILURE() << "storm commit " << next << " failed: "
                      << r.status().ToString();
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Chaos thread: transient faults only — they drive the retry machinery,
  // and a retry answering from a different epoch than its response claims
  // is exactly the bug class this test hunts.
  std::thread chaos([&] {
    Rng rng(0x570F4);
    auto& fi = util::FaultInjection::Instance();
    while (!done.load(std::memory_order_relaxed)) {
      const char* site = kChaosSites[rng.NextIndex(std::size(kChaosSites))];
      if (rng.NextBool(0.2)) {
        fi.DisarmAll();
      } else {
        fi.Arm(site, Status::Internal("injected transient fault"),
               /*nth=*/rng.NextBounded(8) + 1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    fi.DisarmAll();
  });

  struct StormSubmitted {
    bool wants_flip;  ///< flip query (expect {epoch}) vs grow ({1..epoch})
    std::shared_ptr<QueryTicket> ticket;
  };
  std::vector<StormSubmitted> submitted;
  submitted.reserve(kRequests);

  Rng rng(0x5702E);
  for (size_t i = 0; i < kRequests; ++i) {
    StormSubmitted s;
    s.wants_flip = rng.NextBool(0.5);
    QueryRequest req;
    req.program_text = s.wants_flip ? "q(X) :- flip(X).\nq(X)?"
                                    : "q(X) :- grow(X).\nq(X)?";
    if (rng.NextBool(0.2)) req.timeout_ms = rng.NextBounded(20) + 1;
    s.ticket = svc.Submit(std::move(req));
    ASSERT_NE(s.ticket, nullptr);
    submitted.push_back(std::move(s));
    if (rng.NextBool(0.25)) {
      std::this_thread::sleep_for(std::chrono::microseconds(150));
    }
  }

  svc.Shutdown(/*drain=*/true);
  done.store(true, std::memory_order_relaxed);
  writer.join();
  chaos.join();
  util::FaultInjection::Instance().DisarmAll();
  EXPECT_TRUE(writer_ok.load());

  const uint64_t final_tip = store.TipEpoch();
  // The storm must actually have stormed for the test to mean anything.
  EXPECT_GT(final_tip, 1u);

  size_t ok_checked = 0;
  for (const StormSubmitted& s : submitted) {
    ASSERT_TRUE(s.ticket->WaitFor(milliseconds(0)))
        << "ticket " << s.ticket->id() << " never resolved";
    QueryResponse resp = s.ticket->Get();
    if (resp.outcome != Outcome::kOk) continue;
    ASSERT_TRUE(resp.status.ok());
    const uint64_t e = resp.edb_epoch;
    ASSERT_GE(e, 1u);
    ASSERT_LE(e, final_tip);

    std::vector<Tuple> expected;
    if (s.wants_flip) {
      expected.push_back(Tuple{static_cast<Value>(e)});
    } else {
      expected.reserve(e);
      for (uint64_t v = 1; v <= e; ++v) {
        expected.push_back(Tuple{static_cast<Value>(v)});
      }
    }
    EXPECT_EQ(Canonical(resp.report.results), expected)
        << "epoch " << e << " " << (s.wants_flip ? "flip" : "grow")
        << " answer inconsistent with its pinned version";
    ++ok_checked;
  }

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.TerminalTotal(), kRequests) << stats.ToString();

  const std::size_t had_a_chance = kRequests - stats.rejected_overload;
  EXPECT_GT(ok_checked, had_a_chance / 20)
      << "storm too aggressive - almost nothing completed: "
      << stats.ToString();
}

}  // namespace
}  // namespace mcm::service
