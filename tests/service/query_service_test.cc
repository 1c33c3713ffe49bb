// QueryService unit/behavior tests: admission control and O(1) shedding,
// deadline-during-queue-wait, cross-thread cancellation at the service
// boundary, transient-failure retries, the global memory budget, and the
// exactly-one-outcome stats invariant.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "datalog/parser.h"
#include "service/query_service.h"
#include "storage/versioned_store.h"
#include "util/fault_injection.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace mcm::service {
namespace {

using std::chrono::milliseconds;

constexpr const char* kCslSrc = R"(
  p(X, Y) :- e(X, Y).
  p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
  p(0, Y)?
)";

QueryRequest SimpleRequest() {
  QueryRequest req;
  req.program_text = kCslSrc;
  return req;
}

/// A store holding `db`'s relations at epoch 1.
std::unique_ptr<VersionedStore> StoreOf(const Database& db) {
  auto store = std::make_unique<VersionedStore>();
  EXPECT_TRUE(store->Recover().ok());
  EXPECT_TRUE(store->BootstrapFromDatabase(db).ok());
  return store;
}

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MakeFigure1Style().Load(&base_);
    store_ = StoreOf(base_);
  }
  void TearDown() override { util::FaultInjection::Instance().DisarmAll(); }

  /// Occupy every worker: a sticky transient fault plus a huge retry budget
  /// with long backoff turns a request into a controllable blocker that
  /// releases promptly on Cancel(). Returns once the blocker is running
  /// (its first attempt hit the fault): a worker that has merely dequeued
  /// it would still classify a cancel as cancelled-before-start.
  std::shared_ptr<QueryTicket> PinWorker(QueryService* svc) {
    auto ticket = svc->Submit(SimpleRequest());
    while (util::FaultInjection::Instance().HitCount("service/execute") == 0) {
      std::this_thread::yield();
    }
    return ticket;
  }

  Database base_;
  std::unique_ptr<VersionedStore> store_;  ///< base_ at epoch 1
};

/// Options for a service whose single worker can be pinned indefinitely via
/// the "service/execute" sticky fault + retry backoff.
ServiceOptions PinnableOptions() {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 2;
  opts.max_retries = 1000000;
  opts.retry_backoff_ms = 50;
  return opts;
}

void ArmPinFault() {
  util::FaultInjection::Instance().Arm(
      "service/execute", Status::Internal("injected transient fault"),
      /*nth=*/1, /*sticky=*/true);
}

TEST_F(QueryServiceTest, SimpleQueryAnswers) {
  QueryService svc(store_.get(), {});
  auto resp = svc.Submit(SimpleRequest())->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_TRUE(resp.ran());
  EXPECT_FALSE(resp.report.results.empty());
  EXPECT_GE(resp.worker, 0);
  EXPECT_EQ(resp.retries, 0);
  svc.Shutdown(/*drain=*/true);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.TerminalTotal(), 1u);
}

TEST_F(QueryServiceTest, ParseErrorIsAFailedOutcomeNotACrash) {
  QueryService svc(store_.get(), {});
  QueryRequest req;
  req.program_text = "this is not datalog ((";
  auto resp = svc.Submit(std::move(req))->Get();
  EXPECT_EQ(resp.outcome, Outcome::kFailed);
  EXPECT_TRUE(resp.status.IsParseError()) << resp.status.ToString();
  EXPECT_TRUE(resp.ran());
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, QueueFullShedsInBoundedTime) {
  ArmPinFault();
  QueryService svc(store_.get(), PinnableOptions());

  // The worker is busy with the blocker, so the next two submissions are
  // *queued*, not running.
  auto pinned = PinWorker(&svc);

  auto q1 = svc.Submit(SimpleRequest());
  auto q2 = svc.Submit(SimpleRequest());
  EXPECT_FALSE(q1->WaitFor(milliseconds(0)));

  // Queue is at depth 2: this submission must shed immediately — O(1),
  // no parsing, no planner work, future ready on return.
  Timer t;
  auto shed = svc.Submit(SimpleRequest());
  double shed_seconds = t.ElapsedSeconds();
  ASSERT_TRUE(shed->WaitFor(milliseconds(0)))
      << "shed ticket must be ready immediately";
  auto resp = shed->Get();
  EXPECT_EQ(resp.outcome, Outcome::kRejectedOverload);
  EXPECT_TRUE(resp.status.IsUnavailable()) << resp.status.ToString();
  EXPECT_FALSE(resp.ran());
  EXPECT_LT(shed_seconds, 0.25) << "admission rejection is not O(1)";

  EXPECT_EQ(svc.stats().rejected_overload, 1u);
  pinned->Cancel();
  q1->Cancel();
  q2->Cancel();
  svc.Shutdown(/*drain=*/true);
  EXPECT_EQ(svc.stats().TerminalTotal(), svc.stats().submitted);
}

TEST_F(QueryServiceTest, PredictiveShedRejectsUnmeetableDeadlines) {
  ArmPinFault();
  ServiceOptions opts = PinnableOptions();
  opts.expected_run_seconds_hint = 10.0;  // EWMA says runs take ~10s
  QueryService svc(store_.get(), opts);

  auto pinned = PinWorker(&svc);

  // 50ms of budget against an estimated multi-second queue wait: the
  // request would be dead before a worker frees up, so it never queues.
  QueryRequest req = SimpleRequest();
  req.timeout_ms = 50;
  auto resp = svc.Submit(std::move(req))->Get();
  EXPECT_EQ(resp.outcome, Outcome::kRejectedOverload);
  EXPECT_NE(resp.status.message().find("deadline cannot be met"),
            std::string::npos)
      << resp.status.ToString();

  // The same deadline with shedding disabled is admitted (and later dies
  // in the queue — covered by the DeadlineDuringQueueWait test).
  QueryRequest req2 = SimpleRequest();
  req2.timeout_ms = 50;
  ServiceStats before = svc.stats();
  auto t2 = svc.Submit(std::move(req2));
  EXPECT_EQ(svc.stats().rejected_overload, before.rejected_overload + 1u)
      << "hint-driven shed should also catch the second";

  pinned->Cancel();
  svc.Shutdown(/*drain=*/false);
}

TEST_F(QueryServiceTest, DeadlineDuringQueueWaitNeverRuns) {
  ArmPinFault();
  ServiceOptions opts = PinnableOptions();
  opts.shed_unmeetable_deadlines = false;  // force the queue-wait path
  QueryService svc(store_.get(), opts);

  auto pinned = PinWorker(&svc);

  QueryRequest req = SimpleRequest();
  req.timeout_ms = 30;
  auto ticket = svc.Submit(std::move(req));
  std::this_thread::sleep_for(milliseconds(60));  // let the deadline lapse
  pinned->Cancel();                               // release the worker

  auto resp = ticket->Get();
  EXPECT_EQ(resp.outcome, Outcome::kDeadlineBeforeStart);
  EXPECT_TRUE(resp.status.IsDeadlineExceeded()) << resp.status.ToString();
  EXPECT_FALSE(resp.ran()) << "an expired request must not reach the planner";
  EXPECT_EQ(resp.report.attempts.size(), 0u);
  EXPECT_GT(resp.queue_seconds, 0.0);
  EXPECT_EQ(resp.run_seconds, 0.0);
  svc.Shutdown(/*drain=*/true);
  EXPECT_EQ(svc.stats().deadline_before_start, 1u);
}

TEST_F(QueryServiceTest, CancelWhileQueuedNeverRuns) {
  ArmPinFault();
  QueryService svc(store_.get(), PinnableOptions());

  auto pinned = PinWorker(&svc);

  auto ticket = svc.Submit(SimpleRequest());
  ticket->Cancel();  // cross-thread cancel: admitted, not yet picked up
  pinned->Cancel();

  auto resp = ticket->Get();
  EXPECT_EQ(resp.outcome, Outcome::kCancelledBeforeStart);
  EXPECT_TRUE(resp.status.IsCancelled()) << resp.status.ToString();
  EXPECT_FALSE(resp.ran());
  EXPECT_EQ(resp.report.attempts.size(), 0u);
  svc.Shutdown(/*drain=*/true);
  EXPECT_EQ(svc.stats().cancelled_before_start, 1u);
}

TEST_F(QueryServiceTest, MidFlightCancellationFromAnotherThread) {
  ArmPinFault();  // the blocker spins in governed retries until cancelled
  QueryService svc(store_.get(), PinnableOptions());
  auto ticket = svc.Submit(SimpleRequest());
  while (svc.stats().in_flight == 0) std::this_thread::yield();

  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(20));
    ticket->Cancel();
  });
  auto resp = ticket->Get();
  canceller.join();
  EXPECT_EQ(resp.outcome, Outcome::kCancelled);
  EXPECT_TRUE(resp.ran()) << "mid-flight cancel did reach the planner";
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, TransientFaultIsRetriedOnce) {
  util::FaultInjection::Instance().Arm(
      "service/execute", Status::Internal("injected transient fault"));
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_retries = 2;
  opts.retry_backoff_ms = 1;
  QueryService svc(store_.get(), opts);

  auto resp = svc.Submit(SimpleRequest())->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_EQ(resp.retries, 1);
  EXPECT_FALSE(resp.report.results.empty());
  svc.Shutdown(/*drain=*/true);
  EXPECT_EQ(svc.stats().retries, 1u);
}

TEST_F(QueryServiceTest, RetriesExhaustToFailed) {
  util::FaultInjection::Instance().Arm(
      "service/execute", Status::Internal("injected transient fault"),
      /*nth=*/1, /*sticky=*/true);
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_retries = 2;
  opts.retry_backoff_ms = 1;
  QueryService svc(store_.get(), opts);

  auto resp = svc.Submit(SimpleRequest())->Get();
  EXPECT_EQ(resp.outcome, Outcome::kFailed);
  EXPECT_EQ(resp.retries, 2);
  EXPECT_EQ(resp.status.code(), StatusCode::kInternal);
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, NonTransientFaultIsNotRetried) {
  util::FaultInjection::Instance().Arm(
      "service/execute", Status::Unsafe("injected: iteration cap"));
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_retries = 5;
  QueryService svc(store_.get(), opts);

  auto resp = svc.Submit(SimpleRequest())->Get();
  EXPECT_EQ(resp.outcome, Outcome::kFailed);
  EXPECT_EQ(resp.retries, 0) << "caps are never transient";
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, MemoryBudgetBoundsDerivedGrowth) {
  Database big;
  workload::MakeSameGeneration(/*people=*/120, /*max_parents=*/3,
                               /*seed=*/7).Load(&big);
  auto store = StoreOf(big);
  ServiceOptions opts;
  opts.workers = 1;
  opts.total_memory_bytes = 1;  // derived data may grow ~1 byte: must trip
  QueryService svc(store.get(), opts);

  auto resp = svc.Submit(SimpleRequest())->Get();
  EXPECT_EQ(resp.outcome, Outcome::kFailed) << resp.status.ToString();
  EXPECT_NE(resp.status.message().find("memory budget"), std::string::npos)
      << resp.status.ToString();
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, PerRequestCapTighterThanShareWins) {
  Database big;
  workload::MakeSameGeneration(/*people=*/120, /*max_parents=*/3,
                               /*seed=*/7).Load(&big);
  auto store = StoreOf(big);
  ServiceOptions opts;
  opts.workers = 1;
  // Service-level budget is generous; the request brings its own tiny cap.
  opts.total_memory_bytes = 1ull << 30;
  QueryService svc(store.get(), opts);

  QueryRequest req = SimpleRequest();
  req.planner.run.max_memory_bytes = 1;
  auto resp = svc.Submit(std::move(req))->Get();
  EXPECT_EQ(resp.outcome, Outcome::kFailed);
  EXPECT_NE(resp.status.message().find("memory budget"), std::string::npos)
      << resp.status.ToString();
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, ShutdownWithoutDrainCancelsQueuedRequests) {
  ArmPinFault();
  QueryService svc(store_.get(), PinnableOptions());
  auto pinned = PinWorker(&svc);
  auto queued = svc.Submit(SimpleRequest());

  pinned->Cancel();
  svc.Shutdown(/*drain=*/false);
  ASSERT_TRUE(queued->WaitFor(milliseconds(0)));
  auto resp = queued->Get();
  EXPECT_EQ(resp.outcome, Outcome::kCancelledBeforeStart);
  EXPECT_FALSE(resp.ran());
}

TEST_F(QueryServiceTest, SubmitAfterShutdownIsShedNotCrashed) {
  QueryService svc(store_.get(), {});
  svc.Shutdown(/*drain=*/true);
  auto resp = svc.Submit(SimpleRequest())->Get();
  EXPECT_EQ(resp.outcome, Outcome::kRejectedOverload);
  EXPECT_NE(resp.status.message().find("shutting down"), std::string::npos);
}

TEST_F(QueryServiceTest, PreParsedProgramSkipsTheParser) {
  auto prog = dl::Parse(kCslSrc);
  ASSERT_TRUE(prog.ok());
  QueryService svc(store_.get(), {});
  QueryRequest req;
  req.program = *prog;  // no program_text at all
  auto resp = svc.Submit(std::move(req))->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_FALSE(resp.report.results.empty());
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, EveryOutcomeHasAName) {
  for (Outcome o :
       {Outcome::kOk, Outcome::kRejectedOverload, Outcome::kDeadlineBeforeStart,
        Outcome::kCancelledBeforeStart, Outcome::kDeadlineExceeded,
        Outcome::kCancelled, Outcome::kFailed}) {
    EXPECT_NE(OutcomeToString(o), "?");
  }
}

TEST_F(QueryServiceTest, StatsInvariantAcrossAMixedBatch) {
  ServiceOptions opts;
  opts.workers = 4;
  opts.queue_depth = 64;
  QueryService svc(store_.get(), opts);
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 20; ++i) {
    QueryRequest req;
    req.program_text = (i % 5 == 0) ? "broken (" : kCslSrc;
    tickets.push_back(svc.Submit(std::move(req)));
  }
  svc.Shutdown(/*drain=*/true);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 20u);
  EXPECT_EQ(stats.TerminalTotal(), 20u) << stats.ToString();
  EXPECT_EQ(stats.ok, 16u);
  EXPECT_EQ(stats.failed, 4u);
  for (auto& t : tickets) {
    EXPECT_TRUE(t->WaitFor(milliseconds(0)));
  }
  EXPECT_FALSE(stats.ToString().empty());
}

// ---------------------------------------------------------------------------
// Hot-swap mode: the service backed by a VersionedStore

QueryRequest MembershipRequest() {
  QueryRequest req;
  req.program_text = "q(X) :- d(X). q(X)?";
  return req;
}

TEST_F(QueryServiceTest, StoreBackedServiceMatchesFrozenDatabaseAnswers) {
  // The planner straight on the Database the store was bootstrapped from.
  auto prog = dl::Parse(kCslSrc);
  ASSERT_TRUE(prog.ok());
  auto want = core::SolveProgram(&base_, *prog);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  QueryService svc(store_.get(), {});
  auto resp = svc.Submit(SimpleRequest())->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_EQ(resp.edb_epoch, 1u);  // the bootstrap batch
  EXPECT_EQ(resp.report.results, want->results);
}

TEST_F(QueryServiceTest, ZeroCopyBaseMatchesDeepCopyAnswers) {
  // Reference: the planner on a deep copy of the pinned version.
  std::shared_ptr<const EdbVersion> pin = store_->Pin();
  Database copied(&store_->symbols());
  ASSERT_TRUE(pin->SnapshotInto(&copied).ok());
  auto prog = dl::Parse(kCslSrc);
  ASSERT_TRUE(prog.ok());
  auto want = core::SolveProgram(&copied, *prog);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  QueryService borrowing(store_.get(), {});
  auto got = borrowing.Submit(SimpleRequest())->Get();
  ASSERT_EQ(got.outcome, Outcome::kOk) << got.status.ToString();

  EXPECT_EQ(got.edb_epoch, pin->epoch());
  EXPECT_EQ(got.report.results, want->results);
  EXPECT_EQ(got.report.stats.tuples_read, want->stats.tuples_read);
}

TEST_F(QueryServiceTest, ZeroCopyProgramFactsOnEdbPredicatesStayPrivate) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  UpdateBatch b;
  b.CreateRelation("d", 1);
  b.Insert("d", {"1"});
  ASSERT_TRUE(store.Commit(b).ok());

  QueryService svc(&store, {});
  // The program adds a fact to the EDB predicate itself: the borrow must
  // copy-on-write into the private working database, never the version.
  QueryRequest req;
  req.program_text = "d(2). q(X) :- d(X). q(X)?";
  auto resp = svc.Submit(req)->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_EQ(resp.report.results.size(), 2u);

  // The pinned version (and every later request) still sees one fact.
  EXPECT_EQ(store.Pin()->Find("d")->size(), 1u);
  auto after = svc.Submit(MembershipRequest())->Get();
  ASSERT_EQ(after.outcome, Outcome::kOk) << after.status.ToString();
  EXPECT_EQ(after.report.results.size(), 1u);
}

// ---------------------------------------------------------------------------
// Staleness routing: per-request lag bounds on a replica

TEST_F(QueryServiceTest, StaleRequestBeyondBoundIsShedWithLagDetail) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.BootstrapFromDatabase(base_).ok());  // applied epoch 1

  QueryService svc(&store, {});
  // The replication loop reports the primary at epoch 4 while this replica
  // has applied only epoch 1: lag 3.
  svc.ReportReplication(/*tip_epoch=*/4, /*applied_epoch=*/1);

  QueryRequest req = SimpleRequest();
  req.max_lag_epochs = 1;
  auto resp = svc.Submit(std::move(req))->Get();
  EXPECT_EQ(resp.outcome, Outcome::kRejectedOverload);
  EXPECT_TRUE(resp.status.IsUnavailable()) << resp.status.ToString();
  EXPECT_NE(resp.status.ToString().find("replica too stale"),
            std::string::npos)
      << resp.status.ToString();
  // The rejection carries enough to route elsewhere: the primary's tip and
  // the lag this replica observed at admission.
  EXPECT_EQ(resp.replication_tip_epoch, 4u);
  EXPECT_EQ(resp.replication_lag_epochs, 3u);
  EXPECT_FALSE(resp.stale);

  svc.Shutdown(/*drain=*/true);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.staleness_shed, 1u);
  EXPECT_EQ(stats.stale_served, 0u);
  EXPECT_EQ(stats.TerminalTotal(), 1u);
}

TEST_F(QueryServiceTest, StaleOptInServesAndMarksTheResponse) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.BootstrapFromDatabase(base_).ok());

  QueryService svc(&store, {});
  svc.ReportReplication(/*tip_epoch=*/4, /*applied_epoch=*/1);

  QueryRequest req = SimpleRequest();
  req.max_lag_epochs = 1;
  req.serve_stale = true;
  auto resp = svc.Submit(std::move(req))->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_TRUE(resp.stale);
  EXPECT_EQ(resp.edb_epoch, 1u);
  EXPECT_EQ(resp.replication_tip_epoch, 4u);
  EXPECT_EQ(resp.replication_lag_epochs, 3u);
  EXPECT_FALSE(resp.report.results.empty());

  svc.Shutdown(/*drain=*/true);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.stale_served, 1u);
  EXPECT_EQ(stats.staleness_shed, 0u);
}

TEST_F(QueryServiceTest, DefaultRequestsIgnoreReplicaLag) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.BootstrapFromDatabase(base_).ok());

  QueryService svc(&store, {});
  svc.ReportReplication(/*tip_epoch=*/100, /*applied_epoch=*/1);

  // No bound requested (UINT64_MAX): a deeply lagged replica still serves,
  // and the response is NOT marked stale — the caller asked for no bound.
  auto resp = svc.Submit(SimpleRequest())->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_FALSE(resp.stale);
  EXPECT_EQ(resp.replication_lag_epochs, 99u);

  svc.Shutdown(/*drain=*/true);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.stale_served, 0u);
  EXPECT_EQ(stats.staleness_shed, 0u);
}

TEST_F(QueryServiceTest, WithinBoundServesFreshWithoutTheMarker) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.BootstrapFromDatabase(base_).ok());

  QueryService svc(&store, {});
  svc.ReportReplication(/*tip_epoch=*/3, /*applied_epoch=*/1);

  QueryRequest req = SimpleRequest();
  req.max_lag_epochs = 5;  // lag 2 <= 5: fresh enough
  req.serve_stale = true;  // opt-in must not mark within-bound responses
  auto resp = svc.Submit(std::move(req))->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_FALSE(resp.stale);
  EXPECT_EQ(resp.replication_lag_epochs, 2u);

  svc.Shutdown(/*drain=*/true);
  EXPECT_EQ(svc.stats().stale_served, 0u);
}

TEST_F(QueryServiceTest, LagBoundsAreInertOffReplicas) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.BootstrapFromDatabase(base_).ok());

  // No ReportReplication: this service is a primary. Even the tightest
  // bound admits — there is no replication lag to measure.
  QueryService svc(&store, {});
  QueryRequest req = SimpleRequest();
  req.max_lag_epochs = 0;
  auto resp = svc.Submit(std::move(req))->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_FALSE(resp.stale);
  svc.Shutdown(/*drain=*/true);
  EXPECT_EQ(svc.stats().staleness_shed, 0u);
}

TEST_F(QueryServiceTest, ReplicationGaugesNeverRollBackwards) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.BootstrapFromDatabase(base_).ok());

  QueryService svc(&store, {});
  svc.ReportReplication(/*tip_epoch=*/5, /*applied_epoch=*/3);
  // A stale report (reconnect racing the gauge publisher) must not shrink
  // either epoch gauge.
  svc.ReportReplication(/*tip_epoch=*/2, /*applied_epoch=*/1);
  svc.ReportReplicationEvents(/*flaps=*/2, /*failovers=*/1, /*reseeds=*/1);
  svc.ReportReplicationEvents(/*flaps=*/1, /*failovers=*/0, /*reseeds=*/0);

  ServiceStats stats = svc.stats();
  EXPECT_TRUE(stats.replica);
  EXPECT_EQ(stats.replication_tip_epoch, 5u);
  EXPECT_EQ(stats.replication_applied_epoch, 3u);
  EXPECT_EQ(stats.replication_lag_epochs, 2u);
  EXPECT_EQ(stats.replication_flaps, 2u);
  EXPECT_EQ(stats.replication_failovers, 1u);
  EXPECT_EQ(stats.replication_reseeds, 1u);
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, SubmitPinsTheTipAgainstConcurrentCommits) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  UpdateBatch b1;
  b1.CreateRelation("d", 1);
  b1.Insert("d", {"1"});
  ASSERT_TRUE(store.Commit(b1).ok());  // epoch 1

  QueryService svc(&store, PinnableOptions());
  ArmPinFault();
  auto blocker = svc.Submit(MembershipRequest());
  auto pinned = svc.Submit(MembershipRequest());  // queued behind the blocker

  // Hot-swap the EDB while `pinned` sits in the queue.
  UpdateBatch b2;
  b2.Insert("d", {"2"});
  ASSERT_TRUE(store.Commit(b2).ok());  // epoch 2
  EXPECT_EQ(store.TipEpoch(), 2u);

  util::FaultInjection::Instance().DisarmAll();
  blocker->Cancel();
  (void)blocker->Get();

  // The queued request answers from the version pinned at Submit: one d
  // fact, not two, even though it ran after the commit.
  auto resp = pinned->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_EQ(resp.edb_epoch, 1u);
  EXPECT_EQ(resp.report.results.size(), 1u);

  // A fresh Submit sees the new tip.
  auto fresh = svc.Submit(MembershipRequest())->Get();
  ASSERT_EQ(fresh.outcome, Outcome::kOk) << fresh.status.ToString();
  EXPECT_EQ(fresh.edb_epoch, 2u);
  EXPECT_EQ(fresh.report.results.size(), 2u);
  svc.Shutdown(/*drain=*/true);
}

TEST_F(QueryServiceTest, RetriesReSnapshotFromTheSamePinnedVersion) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  UpdateBatch b1;
  b1.CreateRelation("d", 1);
  b1.Insert("d", {"1"});
  ASSERT_TRUE(store.Commit(b1).ok());

  ServiceOptions opts;
  opts.workers = 1;
  opts.max_retries = 3;
  opts.transient.internal = true;
  QueryService svc(&store, opts);
  // One transient failure, then success: the retry re-snapshots but must
  // stay on the pinned epoch.
  util::FaultInjection::Instance().Arm(
      "service/execute", Status::Internal("injected transient"), /*nth=*/1);
  auto resp = svc.Submit(MembershipRequest())->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_EQ(resp.retries, 1);
  EXPECT_EQ(resp.edb_epoch, 1u);
  EXPECT_EQ(resp.report.results.size(), 1u);
}

TEST_F(QueryServiceTest, DroppedRelationOnlyAffectsNewEpochs) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  UpdateBatch b1;
  b1.CreateRelation("d", 1);
  b1.Insert("d", {"1"});
  ASSERT_TRUE(store.Commit(b1).ok());

  QueryService svc(&store, PinnableOptions());
  ArmPinFault();
  auto blocker = svc.Submit(MembershipRequest());
  auto pinned = svc.Submit(MembershipRequest());

  UpdateBatch drop;
  drop.DropRelation("d");
  ASSERT_TRUE(store.Commit(drop).ok());

  util::FaultInjection::Instance().DisarmAll();
  blocker->Cancel();
  (void)blocker->Get();

  // The pinned request still sees `d`; only requests submitted after the
  // drop lose it.
  auto resp = pinned->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_EQ(resp.report.results.size(), 1u);
  svc.Shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace mcm::service
