// Hardened TCP front end: a single-threaded poll() readiness loop that
// multiplexes many client connections onto one QueryService worker pool,
// speaking the exact mcm-serve stdin line protocol (service/protocol.h).
//
// Design in one paragraph: the loop thread owns every connection outright —
// read buffers, write buffers, the ordered in-flight queue, all counters —
// so the frontend has NO mutex and therefore no slot in the lock-order
// registry (util/mutex.h). The only cross-thread edges are (a) Submit(),
// which the service already synchronizes, (b) a per-request on_done hook
// that tickles a self-owned wakeup pipe when a worker finishes, and (c)
// RequestDrain(), an atomic flag plus the same pipe. Health is pushed into
// ServiceStats via ReportFrontend() snapshots, never pulled under a
// frontend lock.
//
// Backpressure is end-to-end and surfaces as TCP: a connection's reads are
// paused (its fd leaves the POLLIN set) while its pipeline is full, its
// write buffer is above the high-water mark, or the service admission
// queue is full — so an overloaded server stops draining client sockets,
// client send() blocks, and overload propagates to the edge instead of
// ballooning heap. Every response is queued in request order and flushed
// from the front only, so pipelined clients get answers in the order they
// asked, each tagged with its per-connection ordinal.
//
// Slow-client defense, each trip a distinct counter in FrontendStats and a
// structured "!fatal <reason>: ..." teardown line:
//   * line_too_long  — a request line over LineLimits::max_line_bytes (the
//                      framing can no longer be trusted);
//   * write_overflow — a single response larger than the write buffer
//                      (it could never be flushed);
//   * write_stalls   — bytes queued but the peer accepted none of them for
//                      write_stall_ms (reader stopped reading);
//   * idle_reaped    — a quiet connection held open past idle_ms;
//   * slowloris_closed — a connection that dribbled bytes without ever
//                      completing its first request line within
//                      first_line_ms.
//
// Graceful drain: RequestDrain() (or readability of shutdown_fd, wired to
// util::SignalPipe by mcm-serve) closes the listener, stops reading,
// finishes and flushes everything in flight within drain_ms, then Run()
// returns. At the deadline, stragglers are cancelled and force-closed —
// the loop always exits.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "service/query_service.h"
#include "util/signal_pipe.h"
#include "util/socket.h"
#include "util/status.h"

namespace mcm::service {

struct FrontendOptions {
  /// 127.0.0.1 port to listen on; 0 = ephemeral (see Frontend::port()).
  uint16_t port = 0;
  /// Accept cap: beyond it new connections wait in the kernel backlog —
  /// accept backpressure, not an error.
  size_t max_connections = 64;
  /// Shared per-line hardening (length cap / NUL / UTF-8).
  protocol::LineLimits line_limits;
  /// Pipelining cap: in-flight requests per connection before its reads
  /// pause. Bounds per-connection heap (tickets + queued responses).
  size_t max_pipeline = 32;
  /// "BATCH n" frame cap.
  uint64_t max_batch = 64;
  /// One TryRead() slice.
  size_t read_chunk_bytes = 16 * 1024;
  /// Write buffer cap. Reads pause at half of it (high-water mark); a
  /// single response larger than all of it is a write_overflow teardown.
  size_t write_buffer_bytes = 256 * 1024;
  /// No write progress while bytes are queued for this long => poisoned
  /// teardown (the fd is closed unflushed; there is nothing left to say).
  uint64_t write_stall_ms = 5'000;
  /// Reap a connection with nothing in flight and no traffic for this
  /// long. 0 disables.
  uint64_t idle_ms = 60'000;
  /// Slowloris cap: a connection must complete its first request line
  /// within this budget. 0 disables.
  uint64_t first_line_ms = 10'000;
  /// Drain budget: RequestDrain() to Run() returning.
  uint64_t drain_ms = 5'000;

  /// Program rules prepended to every query line (mcm-serve --rules).
  std::string rules;
  /// Method spec for every request, in core::ParseMethod's vocabulary:
  /// auto | safe | counting | magic | bottom_up | mc:V:M.
  std::string method = "safe";

  /// Optional fd whose readability triggers drain (mcm-serve passes
  /// util::SignalPipe::Instance().fd()). Not owned, never read from —
  /// SignalPipe::triggered() keeps the "which signal" answer. -1 = none.
  int shutdown_fd = -1;

  /// Control-line hook, consulted before query parsing on every
  /// non-BATCH line. Return the full response text (newline-terminated,
  /// untagged — exactly what the stdin loop prints) to claim the line, or
  /// nullopt to let it be parsed as a query. Runs on the loop thread;
  /// mcm-serve wires UPDATE / CHECKPOINT / PROMOTE / :stats here so the
  /// store plumbing stays out of the service library.
  std::function<std::optional<std::string>(std::string_view)>
      control_handler;
};

/// \brief The readiness loop. Construct, Start() (binds), then Run() on
/// the thread that will own every connection. Thread-safe surface:
/// RequestDrain() and port() only.
class Frontend {
 public:
  /// `svc` is not owned and must outlive Run().
  Frontend(QueryService* svc, FrontendOptions options);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Bind the listener. Must be called (and succeed) before Run().
  [[nodiscard]] Status Start();

  /// The bound port (after Start(); resolves port 0).
  uint16_t port() const { return port_; }

  /// Serve until a drain completes. Callable once.
  void Run();

  /// Begin graceful drain from any thread (idempotent): stop accepting,
  /// stop reading, finish + flush in-flight within drain_ms, then Run()
  /// returns.
  void RequestDrain();

 private:
  /// One response slot, queued in request order. Exactly one of `ticket`
  /// (a service future) or `text` (a pre-formatted control / error reply)
  /// is set; `text` doubles as the formatted-and-waiting-for-buffer-room
  /// state once a ticket resolves.
  struct Slot {
    uint64_t tag = 0;  ///< per-connection ordinal; 0 = untagged (control)
    std::shared_ptr<QueryTicket> ticket;
    std::string text;
  };

  struct Connection;

  // Loop stages, in the order RunLoop applies them each wake.
  void AcceptNew();
  void ReadFrom(Connection* c);
  void ConsumeLines(Connection* c);
  void HandleLine(Connection* c, std::string_view line);
  void HandleBatchMember(Connection* c, std::string_view line);
  void FinishBatch(Connection* c);
  void AbortBatch(Connection* c, std::string_view why);
  void FlushTo(Connection* c);
  void CheckTimers(Connection* c, std::chrono::steady_clock::time_point now);
  /// Poisoned teardown: cancel in-flight, queue "!fatal <msg>", stop
  /// reading; the connection closes once the farewell is flushed.
  void Fatal(Connection* c, uint64_t FrontendStats::*counter,
             std::string_view msg);
  void SubmitOne(Connection* c, uint64_t tag, QueryRequest request);
  [[nodiscard]] QueryRequest BuildRequest(
      const protocol::RequestPrefixes& prefixes);
  bool ShouldClose(const Connection& c) const;
  int ComputePollTimeoutMs(std::chrono::steady_clock::time_point now) const;

  QueryService* svc_;
  FrontendOptions options_;
  util::Listener listener_;
  uint16_t port_ = 0;
  /// Shared with every on_done hook: hooks may outlive the Frontend (a
  /// worker can finish a request after Run() returned), so they must keep
  /// the pipe alive themselves.
  std::shared_ptr<util::WakeupPipe> wake_;
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};
  bool service_backpressure_ = false;  ///< admission queue full this wake
  std::vector<std::unique_ptr<Connection>> conns_;
  FrontendStats stats_;
};

}  // namespace mcm::service
