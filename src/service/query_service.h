// Concurrent query service: admission control, overload shedding, per-query
// isolation, and structured outcomes.
//
// Everything below the service — analyzer, planner, solver, engine — is
// single-threaded by design; the service is the layer that makes dozens of
// governed queries coexist:
//
//   Submit ──> epoch pin + admission (shed kRejectedOverload in O(1) when
//              the queue is full or the deadline cannot be met) ──>
//              bounded queue ──> worker pool ──> per-request
//              ExecutionContext whose deadline started at *submit* (queue
//              wait eats budget) ──> EdbView seeding of a private working
//              Database (shared thread-safe SymbolTable) ──> planner with
//              the degradation ladder ──> transient-failure retry with
//              backoff ──> exactly one classified Outcome.
//
// Isolation model: the EDB lives in a VersionedStore. Submit() pins the
// store's tip version on the caller's thread, and the request — retries
// included — evaluates against that one immutable snapshot while writers
// keep committing new epochs underneath; QueryResponse::edb_epoch reports
// which version answered. (A frozen EDB is a store bootstrapped once with
// BootstrapFromDatabase.) Each attempt's working database borrows the
// pinned version's relations through EdbView: seeding costs O(relations),
// not O(EDB tuples), and copy-on-write materialization keeps a program's
// own facts on EDB predicates private (see storage/edb_view.h). Worker
// threads never share mutable relation state; results are merely Values
// that resolve through the shared table.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "datalog/ast.h"
#include "runtime/execution_context.h"
#include "storage/versioned_store.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mcm::service {

/// Exactly-one-per-request terminal classification. The first three never
/// reach the planner at all.
enum class Outcome : uint8_t {
  kOk = 0,
  kRejectedOverload,      ///< shed at admission: queue full, shutdown, or
                          ///< deadline provably unmeetable
  kDeadlineBeforeStart,   ///< deadline expired during the queue wait
  kCancelledBeforeStart,  ///< cancelled while queued; never ran
  kDeadlineExceeded,      ///< ran, and the governor stopped it at the deadline
  kCancelled,             ///< ran, and was cancelled mid-flight
  kFailed,                ///< ran and failed (parse error, caps, internal...)
};

std::string_view OutcomeToString(Outcome o);

/// One unit of work: a program (text, parsed in the worker, or pre-parsed)
/// with exactly one query, plus per-request governor knobs.
struct QueryRequest {
  /// Program source; parsed on the worker thread when `program` is absent.
  std::string program_text;
  /// Pre-parsed alternative (takes precedence over program_text).
  std::optional<dl::Program> program;
  /// Wall-clock budget measured from Submit() — time spent queued counts.
  /// 0 = ServiceOptions::default_timeout_ms (which may itself be 0 = none).
  uint64_t timeout_ms = 0;
  /// Method-selection and cap knobs. The service overrides run.context,
  /// run.timeout_ms and analysis; run.max_memory_bytes is clamped to the
  /// request's share of the global memory budget.
  core::PlannerOptions planner;
  /// Staleness bound for replica reads (on a service that
  /// ReportReplication marks as a replica; ignored otherwise). The lag is
  /// measured at admission: primary acked tip minus the epoch this request
  /// pins. Within the bound the request proceeds normally; beyond it the
  /// request degrades per `serve_stale`. UINT64_MAX = no bound.
  uint64_t max_lag_epochs = UINT64_MAX;
  /// What to do when the bound is exceeded: false (default) sheds with
  /// kUnavailable ("route me to a fresher replica"); true serves anyway
  /// with QueryResponse::stale set — graceful degradation for readers that
  /// prefer an old answer over none.
  bool serve_stale = false;
  /// Completion hook: invoked exactly once, after this request's future is
  /// ready, on whichever thread finished it — a worker, Shutdown(), or the
  /// submitting thread itself when the request is shed at admission. Must
  /// be cheap, non-blocking, and must not call back into the service; the
  /// TCP front end uses it to tickle its wakeup pipe. Receives the ticket
  /// id. Anything the hook captures must outlive the service's last
  /// in-flight request (capture shared_ptrs, not raw frontend state).
  std::function<void(uint64_t)> on_done;
};

struct QueryResponse {
  Outcome outcome = Outcome::kFailed;
  Status status;             ///< OK iff outcome == kOk
  core::PlanReport report;   ///< populated on kOk (attempt log, results...)
  double queue_seconds = 0;  ///< admission -> worker pickup (or shed time)
  double run_seconds = 0;    ///< time spent executing (0 if never ran)
  int retries = 0;           ///< transient-failure retries consumed
  int worker = -1;           ///< worker that finished it; -1 = shed/queued
  /// Epoch of the EDB version this request was pinned to at Submit(). All
  /// attempts of one request answer from this single version.
  uint64_t edb_epoch = 0;
  /// Replica staleness, observed at admission. `stale` is set only when the
  /// request's max_lag_epochs was exceeded and it opted into serve_stale —
  /// the answer is valid as of edb_epoch, just older than asked for.
  bool stale = false;
  uint64_t replication_tip_epoch = 0;  ///< primary acked tip at admission
  uint64_t replication_lag_epochs = 0;  ///< tip minus this request's epoch

  /// Did the request reach the planner at all? (Satellite: a request
  /// cancelled after admission but before pickup must report false here.)
  bool ran() const {
    return outcome == Outcome::kOk || outcome == Outcome::kDeadlineExceeded ||
           outcome == Outcome::kCancelled || outcome == Outcome::kFailed;
  }
};

/// TCP front-end health, owned by the frontend's loop thread and pushed
/// into ServiceStats via ReportFrontend() so `:stats` (and operators) see
/// connection-layer behaviour next to admission behaviour. Counters are
/// monotonic on the loop thread; each hardening trip has its own counter
/// because they have different remediations (a line_too_long spike means a
/// misbehaving client, a write_stall spike means a slow network or a
/// reader that stopped reading).
struct FrontendStats {
  uint64_t accepted = 0;          ///< connections accepted (lifetime)
  uint64_t closed = 0;            ///< connections closed (lifetime)
  size_t connections = 0;         ///< gauge: currently open
  size_t paused = 0;              ///< gauge: reads paused for backpressure
  uint64_t requests = 0;          ///< request lines submitted to the service
  uint64_t batches = 0;           ///< BATCH frames admitted
  uint64_t protocol_errors = 0;   ///< per-request "[n] error:" responses
  uint64_t line_too_long = 0;     ///< sanitizer: oversized line (fatal)
  uint64_t write_overflow = 0;    ///< write buffer cap tripped (fatal)
  uint64_t write_stalls = 0;      ///< write timeout tripped (fatal)
  uint64_t idle_reaped = 0;       ///< idle deadline tripped (fatal)
  uint64_t slowloris_closed = 0;  ///< dribbling-first-line cap (fatal)
  uint64_t backpressure_pauses = 0;  ///< times a connection entered paused
  std::string ToString() const;
};

/// Monotonic service counters. Every submitted request ends in exactly one
/// of the terminal counters, so `submitted == TerminalTotal()` once the
/// service is drained — the chaos harness's core invariant.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t rejected_overload = 0;
  uint64_t deadline_before_start = 0;
  uint64_t cancelled_before_start = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t retries = 0;      ///< transient retries (not terminal)
  size_t max_queue_depth = 0;
  size_t queue_depth = 0;    ///< snapshot at read time
  size_t in_flight = 0;      ///< snapshot at read time
  double ewma_run_seconds = 0;

  /// Replication health, fed by ReportReplication() when this service
  /// fronts a warm-standby follower store (all zero otherwise). Bounded
  /// staleness in one gauge: readers are at `replication_applied_epoch`,
  /// the primary has acknowledged `replication_tip_epoch`, and the lag is
  /// their difference.
  bool replica = false;
  uint64_t replication_tip_epoch = 0;
  uint64_t replication_applied_epoch = 0;
  uint64_t replication_lag_epochs = 0;
  /// Staleness routing outcomes (replica mode): requests served beyond
  /// their bound with the stale marker, and requests shed because the
  /// bound was exceeded without serve_stale.
  uint64_t stale_served = 0;
  uint64_t staleness_shed = 0;
  /// Fleet supervision gauges, fed by ReportReplicationEvents() from the
  /// embedder's ReplicaSupervisor (zero when unsupervised).
  uint64_t replication_flaps = 0;
  uint64_t replication_failovers = 0;
  uint64_t replication_reseeds = 0;

  /// TCP front-end health, fed by ReportFrontend() when a Frontend fronts
  /// this service (default-constructed otherwise).
  bool frontend = false;
  FrontendStats frontend_stats;

  uint64_t TerminalTotal() const {
    return rejected_overload + deadline_before_start + cancelled_before_start +
           ok + failed + deadline_exceeded + cancelled;
  }
  std::string ToString() const;
};

/// Tuning knobs for a QueryService.
struct ServiceOptions {
  size_t workers = 4;
  /// Bounded admission queue: Submit() sheds with kRejectedOverload in O(1)
  /// once this many requests are waiting (in-flight work not counted).
  size_t queue_depth = 64;
  uint64_t default_timeout_ms = 0;
  /// Global approximate memory budget for derived data, split evenly across
  /// the worker pool: each request may grow its working database to
  /// (EDB snapshot bytes + total/workers) before the governor aborts it
  /// with kMemoryBudget. 0 = unlimited.
  uint64_t total_memory_bytes = 0;
  /// Transient-failure retries per request (IsTransient under `transient`),
  /// deadline permitting, with exponential backoff from retry_backoff_ms.
  int max_retries = 0;
  uint64_t retry_backoff_ms = 5;
  runtime::TransientPolicy transient;
  /// Predictive shedding: reject at admission when the request's whole
  /// budget is smaller than the estimated queue wait (EWMA of recent run
  /// times scaled by the queue ahead of it). Requests that would expire
  /// before a worker frees up never occupy a queue slot.
  bool shed_unmeetable_deadlines = true;
  /// Seeds the run-time EWMA (seconds) so predictive shedding is live from
  /// the first request; 0 disables shedding until real samples arrive.
  double expected_run_seconds_hint = 0;
};

class QueryService;

/// Handle returned by Submit(). Cancellation is cooperative and safe at any
/// point: while queued the request is shed before running; mid-run the
/// governor stops it at the next round boundary.
class QueryTicket {
 public:
  uint64_t id() const { return id_; }
  void Cancel() { token_->Cancel(); }
  bool cancelled() const { return token_->cancelled(); }

  /// Block until the response is ready. May be called repeatedly and from
  /// the canceller's thread; the service fulfills every ticket exactly once
  /// (shutdown included).
  QueryResponse Get() { return future_.get(); }
  bool WaitFor(std::chrono::milliseconds timeout) const {
    return future_.wait_for(timeout) == std::future_status::ready;
  }

 private:
  friend class QueryService;
  QueryTicket(uint64_t id, std::shared_future<QueryResponse> future,
              std::shared_ptr<runtime::CancellationToken> token)
      : id_(id), future_(std::move(future)), token_(std::move(token)) {}

  uint64_t id_;
  std::shared_future<QueryResponse> future_;
  std::shared_ptr<runtime::CancellationToken> token_;
};

/// \brief Fixed worker pool serving governed queries against a shared EDB.
class QueryService {
 public:
  /// Serve queries against `store`'s tip, pinning the current version per
  /// request at Submit(). Writers may keep committing (and checkpointing)
  /// concurrently — pinned readers are unaffected. Not owned; must outlive
  /// the service.
  explicit QueryService(VersionedStore* store, ServiceOptions options = {});

  ~QueryService();  // Shutdown(/*drain=*/false)

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admit or shed `request`. Always returns a ticket whose future will be
  /// fulfilled exactly once; a shed request's future is ready immediately.
  /// O(1) regardless of load — this is the overload-safety property.
  [[nodiscard]] std::shared_ptr<QueryTicket> Submit(QueryRequest request)
      MCM_EXCLUDES(mu_);

  /// Admit or shed `requests` as one unit: one epoch pin (every member
  /// answers from the same version, which stays alive until the last
  /// member finishes) and one queue-capacity decision (the whole
  /// batch fits behind the current queue or the whole batch is shed with
  /// kRejectedOverload — no partial admission on capacity). Per-request
  /// governors still apply individually: staleness bounds and predictive
  /// deadline shedding can drop one member while its siblings run.
  /// Submit() is exactly SubmitBatch() of one. Returns one ticket per
  /// request, in order; O(n) in the batch size and O(1) per member.
  [[nodiscard]] std::vector<std::shared_ptr<QueryTicket>> SubmitBatch(
      std::vector<QueryRequest> requests) MCM_EXCLUDES(mu_);

  /// Stop the service. With `drain` the queue is worked off first; without
  /// it, queued requests finish immediately as kCancelledBeforeStart.
  /// In-flight queries run to completion under their own governors either
  /// way (callers that want them stopped cancel their tickets). Idempotent;
  /// blocks until the workers have joined.
  void Shutdown(bool drain) MCM_EXCLUDES(mu_);

  ServiceStats stats() const MCM_EXCLUDES(mu_);
  const ServiceOptions& options() const { return options_; }

  /// Publish replication health into stats(): the embedder's replication
  /// poll loop calls this after each Follower::Poll with the follower's
  /// advertised-tip and applied epochs. Marks the service as a replica;
  /// epochs only advance (stale reports cannot roll the gauges back).
  void ReportReplication(uint64_t tip_epoch, uint64_t applied_epoch)
      MCM_EXCLUDES(mu_);

  /// Publish fleet supervision counters into stats(): flap/failover/reseed
  /// totals from the embedder's ReplicaSupervisor. Monotonic like the
  /// epoch gauges — a stale report cannot roll counters back.
  void ReportReplicationEvents(uint64_t flaps, uint64_t failovers,
                               uint64_t reseeds) MCM_EXCLUDES(mu_);

  /// Publish TCP front-end health into stats(). The frontend's loop thread
  /// owns the counters and pushes whole snapshots here — the frontend
  /// itself needs no mutex (and therefore no slot in the lock-order
  /// registry). Marks the service as fronted.
  void ReportFrontend(const FrontendStats& fs) MCM_EXCLUDES(mu_);

 private:
  struct Pending {
    uint64_t id = 0;
    QueryRequest request;
    /// The version pinned at Submit(); the pin (refcount) lives exactly as
    /// long as the request does.
    std::shared_ptr<const EdbVersion> snapshot;
    /// Staleness observed at admission (replica mode; zero otherwise).
    bool stale = false;
    uint64_t observed_tip = 0;
    uint64_t observed_lag = 0;
    std::chrono::steady_clock::time_point submitted{};
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::shared_ptr<runtime::CancellationToken> token;
    std::promise<QueryResponse> promise;
  };

  void StartWorkers() MCM_EXCLUDES(mu_);
  void WorkerLoop(int worker_id) MCM_EXCLUDES(mu_);
  void Execute(Pending* p, int worker_id, QueryResponse* resp)
      MCM_EXCLUDES(mu_);
  /// Fulfill the promise and bump the outcome counter — the single funnel
  /// every admitted request passes through exactly once.
  void Finish(Pending* p, QueryResponse resp) MCM_EXCLUDES(mu_);
  /// Estimated seconds until a worker frees up for a newly queued request.
  double EstimatedQueueWaitLocked() const MCM_REQUIRES(mu_);
  /// Cancellation/shutdown-aware sleep used between retries.
  void BackoffSleep(uint64_t ms, const runtime::ExecutionContext& ctx) const
      MCM_EXCLUDES(mu_);

  VersionedStore* store_;
  ServiceOptions options_;

  /// Rank 1 of the lock-order registry (util/mutex.h).
  mutable util::Mutex mu_ MCM_ACQUIRED_AFTER(util::kLockRankService)
      MCM_ACQUIRED_BEFORE(util::kLockRankSupervisor);
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Pending>> queue_ MCM_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ MCM_GUARDED_BY(mu_);
  bool stopping_ MCM_GUARDED_BY(mu_) = false;
  bool drain_on_stop_ MCM_GUARDED_BY(mu_) = true;
  size_t busy_ MCM_GUARDED_BY(mu_) = 0;
  uint64_t next_id_ MCM_GUARDED_BY(mu_) = 1;
  ServiceStats stats_ MCM_GUARDED_BY(mu_);
  double ewma_run_seconds_ MCM_GUARDED_BY(mu_) = 0;
};

}  // namespace mcm::service
