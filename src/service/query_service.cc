#include "service/query_service.h"

#include <algorithm>
#include <utility>

#include "datalog/parser.h"
#include "storage/edb_view.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mcm::service {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::string_view OutcomeToString(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kRejectedOverload:
      return "rejected_overload";
    case Outcome::kDeadlineBeforeStart:
      return "deadline_before_start";
    case Outcome::kCancelledBeforeStart:
      return "cancelled_before_start";
    case Outcome::kDeadlineExceeded:
      return "deadline_exceeded";
    case Outcome::kCancelled:
      return "cancelled";
    case Outcome::kFailed:
      return "failed";
  }
  return "?";
}

std::string FrontendStats::ToString() const {
  return StringPrintf(
      "conns %zu (accepted %llu, closed %llu), paused %zu | requests %llu "
      "(batches %llu), protocol_errors %llu | line_too_long %llu, "
      "write_overflow %llu, write_stalls %llu, idle_reaped %llu, "
      "slowloris_closed %llu | backpressure_pauses %llu",
      connections, static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(closed), paused,
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(protocol_errors),
      static_cast<unsigned long long>(line_too_long),
      static_cast<unsigned long long>(write_overflow),
      static_cast<unsigned long long>(write_stalls),
      static_cast<unsigned long long>(idle_reaped),
      static_cast<unsigned long long>(slowloris_closed),
      static_cast<unsigned long long>(backpressure_pauses));
}

std::string ServiceStats::ToString() const {
  std::string out = StringPrintf(
      "submitted %llu | ok %llu, failed %llu, deadline %llu (queued %llu), "
      "cancelled %llu (queued %llu), shed %llu | retries %llu | queue %zu "
      "(max %zu), in-flight %zu, ewma run %.2fms",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(deadline_before_start),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(cancelled_before_start),
      static_cast<unsigned long long>(rejected_overload),
      static_cast<unsigned long long>(retries), queue_depth,
      max_queue_depth, in_flight, ewma_run_seconds * 1e3);
  if (replica) {
    out += StringPrintf(
        " | replica: tip epoch %llu, applied epoch %llu, "
        "replication_lag_epochs %llu, stale_served %llu, staleness_shed "
        "%llu, replication_flaps %llu, replication_failovers %llu, "
        "replication_reseeds %llu",
        static_cast<unsigned long long>(replication_tip_epoch),
        static_cast<unsigned long long>(replication_applied_epoch),
        static_cast<unsigned long long>(replication_lag_epochs),
        static_cast<unsigned long long>(stale_served),
        static_cast<unsigned long long>(staleness_shed),
        static_cast<unsigned long long>(replication_flaps),
        static_cast<unsigned long long>(replication_failovers),
        static_cast<unsigned long long>(replication_reseeds));
  }
  if (frontend) {
    out += " | frontend: " + frontend_stats.ToString();
  }
  return out;
}

QueryService::QueryService(VersionedStore* store, ServiceOptions options)
    : store_(store),
      options_(std::move(options)),
      ewma_run_seconds_(options_.expected_run_seconds_hint) {
  StartWorkers();
}

void QueryService::StartWorkers() {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  util::MutexLock lock(mu_);
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&QueryService::WorkerLoop, this,
                          static_cast<int>(i));
  }
}

QueryService::~QueryService() { Shutdown(/*drain=*/false); }

double QueryService::EstimatedQueueWaitLocked() const {
  if (busy_ < workers_.size() && queue_.empty()) return 0;
  // Every request ahead (queued + the slot this one will take) costs one
  // EWMA run on one of the workers. Coarse by construction — it only has
  // to be good enough to shed hopeless requests in O(1).
  return ewma_run_seconds_ *
         (static_cast<double>(queue_.size()) + 1.0) /
         static_cast<double>(workers_.size());
}

std::shared_ptr<QueryTicket> QueryService::Submit(QueryRequest request) {
  std::vector<QueryRequest> one;
  one.push_back(std::move(request));
  return SubmitBatch(std::move(one)).front();
}

std::vector<std::shared_ptr<QueryTicket>> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  if (requests.empty()) return tickets;
  tickets.reserve(requests.size());

  Clock::time_point now = Clock::now();
  // ONE pin for the whole batch, resolved on the caller's thread before
  // any queueing. Every member answers from this snapshot (retries
  // included), and the shared refcount keeps the version alive until the
  // last member finishes — batch admission amortizes the pin, not just the
  // lock.
  std::shared_ptr<const EdbVersion> snapshot = store_->Pin();

  std::vector<std::unique_ptr<Pending>> batch;
  batch.reserve(requests.size());
  for (QueryRequest& request : requests) {
    auto pending = std::make_unique<Pending>();
    pending->request = std::move(request);
    pending->submitted = now;
    pending->token = std::make_shared<runtime::CancellationToken>();
    pending->snapshot = snapshot;
    tickets.push_back(std::shared_ptr<QueryTicket>(
        new QueryTicket(0, pending->promise.get_future().share(),
                        pending->token)));
    uint64_t timeout_ms = pending->request.timeout_ms != 0
                              ? pending->request.timeout_ms
                              : options_.default_timeout_ms;
    if (timeout_ms > 0) {
      pending->deadline = now + std::chrono::milliseconds(timeout_ms);
    }
    batch.push_back(std::move(pending));
  }

  // Completion hooks of members shed at admission, invoked after mu_ is
  // released: on_done must never run under the service lock.
  std::vector<std::pair<std::function<void(uint64_t)>, uint64_t>> shed_hooks;
  bool queued_any = false;

  util::MutexLock lock(mu_);
  // ONE capacity decision for the whole batch: it fits behind the current
  // queue or every member is shed — partial admission would make "BATCH n"
  // responses depend on interleaving with other submitters.
  Status batch_shed;
  if (stopping_) {
    batch_shed = Status::Unavailable("service is shutting down");
  } else if (queue_.size() + batch.size() > options_.queue_depth) {
    batch_shed = Status::Unavailable(StringPrintf(
        "admission queue full (%zu waiting, batch of %zu)", queue_.size(),
        batch.size()));
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    std::unique_ptr<Pending>& pending = batch[i];
    pending->id = next_id_++;
    tickets[i]->id_ = pending->id;
    ++stats_.submitted;

    // Per-member shedding decisions, made inline under mu_ (not in a
    // lambda — the analysis checks guarded access in the enclosing lock
    // scope). Capacity is batch-wide; staleness and deadline remain
    // per-request governors.
    Status shed_status = batch_shed;
    if (shed_status.ok()) {
      // Staleness routing (replica mode): lag is the primary's freshest
      // acked tip (as reported by the replication loop) minus the epoch
      // this request just pinned. Within bound: proceed. Beyond bound:
      // serve stale when the request opted in, else shed so the caller can
      // route to a fresher replica.
      if (stats_.replica) {
        uint64_t pinned = pending->snapshot->epoch();
        pending->observed_tip = std::max(stats_.replication_tip_epoch, pinned);
        pending->observed_lag = pending->observed_tip - pinned;
        if (pending->observed_lag > pending->request.max_lag_epochs) {
          if (pending->request.serve_stale) {
            pending->stale = true;
            ++stats_.stale_served;
          } else {
            ++stats_.staleness_shed;
            shed_status = Status::Unavailable(StringPrintf(
                "replica too stale: lag %llu epochs exceeds the requested "
                "bound of %llu",
                static_cast<unsigned long long>(pending->observed_lag),
                static_cast<unsigned long long>(
                    pending->request.max_lag_epochs)));
          }
        }
      }
      uint64_t timeout_ms = pending->request.timeout_ms != 0
                                ? pending->request.timeout_ms
                                : options_.default_timeout_ms;
      if (shed_status.ok() && pending->deadline &&
          options_.shed_unmeetable_deadlines) {
        double est = EstimatedQueueWaitLocked();
        double budget = static_cast<double>(timeout_ms) / 1e3;
        if (est > budget) {
          shed_status = Status::Unavailable(StringPrintf(
              "deadline cannot be met: %.0fms budget < ~%.0fms estimated "
              "queue wait",
              budget * 1e3, est * 1e3));
        }
      }
    }
    if (!shed_status.ok()) {
      QueryResponse resp;
      resp.outcome = Outcome::kRejectedOverload;
      resp.status = std::move(shed_status);
      resp.edb_epoch = pending->snapshot->epoch();
      resp.replication_tip_epoch = pending->observed_tip;
      resp.replication_lag_epochs = pending->observed_lag;
      ++stats_.rejected_overload;
      if (pending->request.on_done) {
        shed_hooks.emplace_back(std::move(pending->request.on_done),
                                pending->id);
      }
      // Fulfill outside Finish(): the request was never queued, and the
      // promise must be set after the counters so stats never undercount.
      pending->promise.set_value(std::move(resp));
      continue;
    }

    queue_.push_back(std::move(pending));
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    queued_any = true;
  }
  lock.Unlock();
  if (queued_any) {
    if (batch.size() > 1) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }
  for (auto& [hook, id] : shed_hooks) hook(id);
  return tickets;
}

void QueryService::Finish(Pending* p, QueryResponse resp) {
  {
    util::MutexLock lock(mu_);
    switch (resp.outcome) {
      case Outcome::kOk:
        ++stats_.ok;
        break;
      case Outcome::kRejectedOverload:
        ++stats_.rejected_overload;
        break;
      case Outcome::kDeadlineBeforeStart:
        ++stats_.deadline_before_start;
        break;
      case Outcome::kCancelledBeforeStart:
        ++stats_.cancelled_before_start;
        break;
      case Outcome::kDeadlineExceeded:
        ++stats_.deadline_exceeded;
        break;
      case Outcome::kCancelled:
        ++stats_.cancelled;
        break;
      case Outcome::kFailed:
        ++stats_.failed;
        break;
    }
    stats_.retries += static_cast<uint64_t>(resp.retries);
    if (resp.run_seconds > 0) {
      ewma_run_seconds_ = ewma_run_seconds_ == 0
                              ? resp.run_seconds
                              : 0.8 * ewma_run_seconds_ +
                                    0.2 * resp.run_seconds;
    }
  }
  p->promise.set_value(std::move(resp));
  // After set_value, never before: the hook's contract is "the future is
  // ready when I fire". Runs outside mu_ on this (worker/shutdown) thread.
  if (p->request.on_done) p->request.on_done(p->id);
}

void QueryService::WorkerLoop(int worker_id) {
  for (;;) {
    std::unique_ptr<Pending> p;
    {
      util::MutexLock lock(mu_);
      // Manual wait loop (not the predicate overload): the guarded reads
      // stay in this scope, where the analysis can see mu_ is held.
      while (!stopping_ && queue_.empty()) lock.Wait(cv_);
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      if (stopping_ && !drain_on_stop_) return;
      p = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }

    QueryResponse resp;
    resp.worker = worker_id;
    resp.queue_seconds = SecondsSince(p->submitted);
    resp.edb_epoch = p->snapshot->epoch();
    resp.stale = p->stale;
    resp.replication_tip_epoch = p->observed_tip;
    resp.replication_lag_epochs = p->observed_lag;

    // Admission-to-pickup checks: a request cancelled or expired while
    // queued must not run at all.
    if (p->token->cancelled()) {
      resp.outcome = Outcome::kCancelledBeforeStart;
      resp.status = Status::Cancelled(StringPrintf(
          "cancelled while queued (%.1fms wait)", resp.queue_seconds * 1e3));
    } else if (p->deadline && Clock::now() >= *p->deadline) {
      resp.outcome = Outcome::kDeadlineBeforeStart;
      resp.status = Status::DeadlineExceeded(StringPrintf(
          "deadline expired after %.1fms in queue, before any work",
          resp.queue_seconds * 1e3));
    } else {
      Execute(p.get(), worker_id, &resp);
    }

    Finish(p.get(), std::move(resp));
    {
      util::MutexLock lock(mu_);
      --busy_;
    }
  }
}

void QueryService::BackoffSleep(uint64_t ms,
                                const runtime::ExecutionContext& ctx) const {
  auto until = Clock::now() + std::chrono::milliseconds(ms);
  while (Clock::now() < until) {
    if (ctx.CheckAbort() != runtime::AbortReason::kNone) return;
    {
      util::MutexLock lock(mu_);
      if (stopping_) return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void QueryService::Execute(Pending* p, int worker_id, QueryResponse* resp) {
  (void)worker_id;
  Timer run_timer;

  // Parse on the worker thread so admission stays O(1).
  dl::Program program;
  if (p->request.program.has_value()) {
    program = *p->request.program;
  } else {
    auto parsed = dl::Parse(p->request.program_text);
    if (!parsed.ok()) {
      resp->outcome = Outcome::kFailed;
      resp->status = parsed.status();
      resp->run_seconds = run_timer.ElapsedSeconds();
      return;
    }
    program = std::move(*parsed);
  }

  core::PlannerOptions opts = p->request.planner;
  opts.analysis = nullptr;  // per-request working db => per-request analysis

  // The governor: deadline anchored at Submit() (queue wait already ate
  // into it), cancellation shared with the ticket.
  runtime::ExecutionContext ctx;
  if (p->deadline) ctx.SetDeadline(*p->deadline);
  ctx.set_cancellation(p->token);
  opts.run.context = &ctx;
  opts.run.timeout_ms = 0;  // the context carries the deadline

  // Memory budget: the pinned EDB version is a fixed per-request cost, so
  // the configured budget governs *derived* growth beyond it.
  if (options_.total_memory_bytes > 0) {
    uint64_t share = static_cast<uint64_t>(p->snapshot->ApproxBytes()) +
                     options_.total_memory_bytes /
                         static_cast<uint64_t>(options_.workers);
    opts.run.max_memory_bytes = opts.run.max_memory_bytes == 0
                                    ? share
                                    : std::min(opts.run.max_memory_bytes,
                                               share);
  }

  for (int attempt = 0;; ++attempt) {
    // Cancellation or deadline expiry during a backoff sleep lands here:
    // classify from the governor, not from whatever the last attempt said.
    if (runtime::AbortReason ar = ctx.CheckAbort();
        ar != runtime::AbortReason::kNone) {
      resp->status = ctx.CheckStatus("between service retries");
      resp->outcome = ar == runtime::AbortReason::kCancelled
                          ? Outcome::kCancelled
                          : Outcome::kDeadlineExceeded;
      break;
    }
    // Per-query isolation: a private working database sharing the store's
    // thread-safe symbol table, seeded by borrowing the pinned version's
    // relations (EdbView::AttachTo — no tuple copy; the pin held in `p`
    // plus the shared_ptr inside each borrow keep the version alive).
    // Retries start from a clean seed too — a half-derived IDB must not
    // leak into the next attempt — and from the SAME pinned version: a
    // retry never mixes epochs.
    Database work(&store_->symbols());
    EdbView view(*p->snapshot);
    Status st = view.AttachTo(&work);
    if (st.ok()) st = util::FaultInjection::Instance().Check("service/execute");
    Result<core::PlanReport> run =
        st.ok() ? core::SolveProgram(&work, program, opts)
                : Result<core::PlanReport>(st);

    if (run.ok()) {
      resp->outcome = Outcome::kOk;
      resp->status = Status::OK();
      resp->report = std::move(*run);
      break;
    }

    st = run.status();
    bool deadline_left =
        ctx.CheckAbort() == runtime::AbortReason::kNone;
    if (runtime::IsTransient(st, options_.transient) &&
        attempt < options_.max_retries && deadline_left) {
      ++resp->retries;
      // Shared pacing with the replication supervisor's reconnects:
      // exponential from retry_backoff_ms, capped, jittered per request id
      // so a herd of retriers spreads out (TransientPolicy::NextDelay).
      runtime::TransientPolicy pacing = options_.transient;
      pacing.backoff_base_ms = options_.retry_backoff_ms;
      BackoffSleep(pacing.NextDelay(attempt, p->id), ctx);
      continue;
    }

    // Terminal failure.
    resp->status = st;
    resp->outcome = st.IsDeadlineExceeded() ? Outcome::kDeadlineExceeded
                    : st.IsCancelled()      ? Outcome::kCancelled
                                            : Outcome::kFailed;
    break;
  }
  resp->run_seconds = run_timer.ElapsedSeconds();
}

void QueryService::Shutdown(bool drain) {
  std::vector<std::thread> to_join;
  std::vector<std::unique_ptr<Pending>> to_cancel;
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
    drain_on_stop_ = drain;
    if (!drain) {
      while (!queue_.empty()) {
        to_cancel.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    to_join.swap(workers_);
  }
  cv_.notify_all();
  for (auto& p : to_cancel) {
    QueryResponse resp;
    resp.outcome = Outcome::kCancelledBeforeStart;
    resp.status = Status::Cancelled("service shutdown while queued");
    resp.queue_seconds = SecondsSince(p->submitted);
    resp.edb_epoch = p->snapshot->epoch();
    Finish(p.get(), std::move(resp));
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
}

void QueryService::ReportReplication(uint64_t tip_epoch,
                                     uint64_t applied_epoch) {
  util::MutexLock lock(mu_);
  stats_.replica = true;
  stats_.replication_tip_epoch =
      std::max(stats_.replication_tip_epoch, tip_epoch);
  stats_.replication_applied_epoch =
      std::max(stats_.replication_applied_epoch, applied_epoch);
  stats_.replication_lag_epochs =
      stats_.replication_tip_epoch - stats_.replication_applied_epoch;
}

void QueryService::ReportReplicationEvents(uint64_t flaps, uint64_t failovers,
                                           uint64_t reseeds) {
  util::MutexLock lock(mu_);
  stats_.replica = true;
  stats_.replication_flaps = std::max(stats_.replication_flaps, flaps);
  stats_.replication_failovers =
      std::max(stats_.replication_failovers, failovers);
  stats_.replication_reseeds = std::max(stats_.replication_reseeds, reseeds);
}

void QueryService::ReportFrontend(const FrontendStats& fs) {
  util::MutexLock lock(mu_);
  stats_.frontend = true;
  stats_.frontend_stats = fs;
}

ServiceStats QueryService::stats() const {
  util::MutexLock lock(mu_);
  ServiceStats out = stats_;
  out.queue_depth = queue_.size();
  out.in_flight = busy_;
  out.ewma_run_seconds = ewma_run_seconds_;
  return out;
}

}  // namespace mcm::service
