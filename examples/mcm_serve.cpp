// mcm-serve — line-protocol front end for the concurrent query service.
//
// Usage:
//   mcm-serve RULES.dl [--fact NAME=FILE.tsv]... [--store DIR]
//             [--listen PORT] [--workers N] [--queue-depth N]
//             [--default-timeout-ms N] [--max-retries N]
//             [--memory-budget BYTES] [--method M]
//
//   RULES.dl         Datalog rules WITHOUT a query; every stdin line adds one
//   --fact name=path load a TSV fact file into relation `name`
//   --listen PORT    serve the SAME line protocol over TCP on
//                    127.0.0.1:PORT (0 = ephemeral; the bound port is
//                    printed to stderr) instead of stdin: a hardened
//                    single-threaded readiness loop multiplexes many
//                    connections onto the worker pool with pipelining
//                    (responses tagged with per-connection ordinals, in
//                    request order), "BATCH n" frames (one admission
//                    decision + one epoch pin for n queries), end-to-end
//                    backpressure (an overloaded service pauses socket
//                    reads), and slow-client defense (line caps, bounded
//                    buffers, write-stall / idle / slowloris teardowns —
//                    see service/frontend.h). Incompatible with the
//                    standby modes: a reseed rebuilds the service under
//                    the frontend's feet; fleet query routing is a
//                    ROADMAP item.
//   --store DIR      durable EDB: recover from DIR's checkpoint + WAL, and
//                    make UPDATE commits / CHECKPOINT survive a crash.
//                    Without it the store is in-memory (hot-swap only).
//   --follow DIR     warm-standby mode: DIR is a *primary's* store
//                    directory. The server bootstraps a follower store from
//                    DIR's checkpoint/WAL via a paced FileTailSource
//                    (bounded poll interval, capped backoff — never a busy
//                    loop) and re-syncs before every query, serves
//                    read-only queries at its applied epoch, and rejects
//                    UPDATE/CHECKPOINT until PROMOTE. Combine with
//                    --store OWNDIR to make the standby itself durable; a
//                    standby that fell behind the primary's retained WAL is
//                    reseeded automatically (its own state is wiped and
//                    rebuilt from the primary checkpoint).
//   --listen-repl PORT   (primary, needs --store) serve the replication
//                    stream over TCP on 127.0.0.1:PORT: a background
//                    thread accepts one follower at a time and pumps the
//                    WAL to it continuously.
//   --connect-repl HOST:PORT  warm-standby over TCP: like --follow, but
//                    the frames arrive from a primary running with
//                    --listen-repl instead of from a shared directory.
//                    Dead links are reconnected with capped jittered
//                    backoff; a torn stream reseeds the standby.
//   --workers        worker threads (default 4)
//   --queue-depth    bounded admission queue (default 64)
//   --default-timeout-ms  per-request deadline when a line has none
//   --max-retries    transient-failure retries per request (default 2)
//   --memory-budget  global derived-data budget, split across workers
//   --method         method spec for every request (the same vocabulary
//                    as mcmq --method, see core::ParseMethod):
//                      auto       cost-ranked selection (default)
//                      safe       fixed safe walk from mc:multiple:int
//                      counting   attempt plain counting under the governor
//                                 (a divergent attempt stops after n_L
//                                 rounds, then the ladder answers)
//                      magic      generalized magic sets
//                      bottom_up  plain seminaive evaluation
//                      mc:V:M     safe walk from magic counting variant V
//                                 (basic|single|multiple|recurring|smart),
//                                 mode M (ind|int)
//
// The EDB lives in an epoch-versioned store: every query pins the tip
// version at submission and answers from that snapshot no matter how many
// updates land while it runs.
//
// Line protocol (stdin):
//   p(0, Y)?                 submit this query against the rules
//   @timeout=250 p(0, Y)?    ... with a 250ms deadline (queue wait counts)
//   @max_lag=2 p(0, Y)?      (replica) answer only if the pinned epoch is
//                            within 2 epochs of the primary's acked tip;
//                            sheds with kUnavailable otherwise
//   @stale_ok @max_lag=2 ... ... but over the bound serve anyway, marking
//                            the answer "stale@epoch N"
//   UPDATE <op>; <op>; ...   atomically commit one update batch:
//                              +rel(v1, v2)   insert a fact
//                              -rel(v1, v2)   delete a fact
//                              create rel/2   new empty relation, arity 2
//                              drop rel       remove a relation
//                            all-or-nothing: any bad op rejects the whole
//                            batch and the tip epoch does not move
//   CHECKPOINT               write a durable checkpoint and rotate the WAL
//                            (--store mode only)
//   PROMOTE                  failover (--follow mode): sync once more, then
//                            promote this standby to primary — UPDATE /
//                            CHECKPOINT start working. Refused with
//                            DataLoss when the primary acknowledged epochs
//                            this standby never received (promoting would
//                            silently lose them).
//   :stats                   print a service stats snapshot (replica modes
//                            add tip/applied epochs, replication_lag_epochs,
//                            stale_served, staleness_shed, and the flap /
//                            failover / reseed counters; --listen adds the
//                            frontend connection/defense counters)
//   BATCH n                  (--listen only) the next n lines are queries
//                            sharing ONE admission decision and ONE epoch
//                            pin; every line inside a batch is a query
//   # ...                    comment; blank lines are skipped
//
// Every request line — stdin or TCP — passes the shared sanitizer first
// (service/protocol.h): over the 64 KiB length cap, containing a NUL, or
// not valid UTF-8 each earn a distinct structured error.
//
// SIGTERM / SIGINT begin a graceful drain in every mode (self-pipe, no
// async-signal-unsafe work in the handler): stop accepting input, finish
// and flush what is in flight, exit 0.
//
// UPDATE / CHECKPOINT are applied (and answered) immediately in stream
// order, so later queries see the new epoch. Query lines are answered in
// submission order once stdin closes (the service runs them concurrently):
//   [3] ok: 17 tuples @epoch 2 in 0.82ms (queue 0.05ms, retries 0)
//   [4] deadline_before_start: deadline expired after 51.2ms in queue, ...
// and a final stats dump goes to stderr.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "datalog/parser.h"
#include "runtime/execution_context.h"
#include "service/frontend.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "storage/io.h"
#include "storage/net_transport.h"
#include "storage/replication.h"
#include "storage/versioned_store.h"
#include "util/signal_pipe.h"
#include "util/socket.h"
#include "util/string_util.h"

using namespace mcm;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "mcm-serve: %s\n", msg.c_str());
  return 1;
}

/// Parse the op list of an UPDATE line ("+rel(a, b); create t/1; ...")
/// into a batch. Returns false with `*err` set on the first malformed op —
/// nothing is committed in that case.
bool ParseUpdateOps(std::string_view ops_text, UpdateBatch* batch,
                    std::string* err) {
  for (const std::string& raw : Split(ops_text, ';')) {
    std::string_view op = Trim(raw);
    if (op.empty()) continue;
    if (op[0] == '+' || op[0] == '-') {
      const bool insert = op[0] == '+';
      size_t open = op.find('(');
      if (open == std::string_view::npos || op.back() != ')') {
        *err = "expected " + std::string(1, op[0]) +
               "rel(v1, ...) in '" + std::string(op) + "'";
        return false;
      }
      std::string rel(Trim(op.substr(1, open - 1)));
      if (rel.empty()) {
        *err = "missing relation name in '" + std::string(op) + "'";
        return false;
      }
      std::vector<std::string> fields;
      std::string_view inner = op.substr(open + 1, op.size() - open - 2);
      if (!Trim(inner).empty()) {
        for (const std::string& f : Split(inner, ',')) {
          fields.emplace_back(Trim(f));
        }
      }
      if (insert) {
        batch->Insert(std::move(rel), std::move(fields));
      } else {
        batch->Delete(std::move(rel), std::move(fields));
      }
    } else if (StartsWith(op, "create ")) {
      std::string_view spec = Trim(op.substr(7));
      size_t slash = spec.rfind('/');
      if (slash == std::string_view::npos) {
        *err = "expected create rel/arity in '" + std::string(op) + "'";
        return false;
      }
      std::string arity_str(spec.substr(slash + 1));
      char* end = nullptr;
      unsigned long arity = std::strtoul(arity_str.c_str(), &end, 10);
      if (arity_str.empty() || end == nullptr || *end != '\0') {
        *err = "bad arity in '" + std::string(op) + "'";
        return false;
      }
      batch->CreateRelation(std::string(Trim(spec.substr(0, slash))),
                            static_cast<uint32_t>(arity));
    } else if (StartsWith(op, "drop ")) {
      std::string rel(Trim(op.substr(5)));
      if (rel.empty()) {
        *err = "missing relation name in '" + std::string(op) + "'";
        return false;
      }
      batch->DropRelation(std::move(rel));
    } else {
      *err = "unknown op '" + std::string(op) +
             "' (want +rel(...), -rel(...), create rel/N, drop rel)";
      return false;
    }
  }
  if (batch->empty()) {
    *err = "empty batch";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mcm-serve RULES.dl [--fact NAME=FILE]... "
                 "[--store DIR] [--follow DIR] "
                 "[--workers N] [--queue-depth N] [--default-timeout-ms N] "
                 "[--max-retries N] [--memory-budget BYTES] [--method M]\n");
    return 2;
  }

  std::string rules_path = argv[1];
  std::string method = "auto";
  std::string store_dir;
  std::string follow_dir;
  std::string connect_repl;  // "host:port", empty = off
  uint16_t listen_repl_port = 0;
  bool listen_repl = false;
  uint16_t listen_port = 0;
  bool listen = false;
  service::ServiceOptions opts;
  opts.max_retries = 2;
  std::vector<std::pair<std::string, std::string>> facts;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    auto next_u64 = [&](uint64_t* out) {
      std::string v = next();
      char* end = nullptr;
      *out = std::strtoull(v.c_str(), &end, 10);
      return !v.empty() && end != nullptr && *end == '\0';
    };
    uint64_t n = 0;
    if (arg == "--fact") {
      std::string spec = next();
      size_t eq = spec.find('=');
      if (eq == std::string::npos) return Fail("--fact expects NAME=FILE");
      facts.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--store") {
      store_dir = next();
      if (store_dir.empty()) return Fail("--store expects DIR");
    } else if (arg == "--follow") {
      follow_dir = next();
      if (follow_dir.empty()) return Fail("--follow expects DIR");
    } else if (arg == "--listen") {
      if (!next_u64(&n) || n > 65535) return Fail("--listen expects PORT");
      listen = true;
      listen_port = static_cast<uint16_t>(n);
    } else if (arg == "--listen-repl") {
      if (!next_u64(&n) || n > 65535) {
        return Fail("--listen-repl expects PORT");
      }
      listen_repl = true;
      listen_repl_port = static_cast<uint16_t>(n);
    } else if (arg == "--connect-repl") {
      connect_repl = next();
      if (connect_repl.find(':') == std::string::npos) {
        return Fail("--connect-repl expects HOST:PORT");
      }
    } else if (arg == "--workers") {
      if (!next_u64(&n) || n == 0) return Fail("--workers expects N > 0");
      opts.workers = static_cast<size_t>(n);
    } else if (arg == "--queue-depth") {
      if (!next_u64(&n) || n == 0) return Fail("--queue-depth expects N > 0");
      opts.queue_depth = static_cast<size_t>(n);
    } else if (arg == "--default-timeout-ms") {
      if (!next_u64(&opts.default_timeout_ms)) {
        return Fail("--default-timeout-ms expects N");
      }
    } else if (arg == "--max-retries") {
      if (!next_u64(&n)) return Fail("--max-retries expects N");
      opts.max_retries = static_cast<int>(n);
    } else if (arg == "--memory-budget") {
      if (!next_u64(&opts.total_memory_bytes)) {
        return Fail("--memory-budget expects BYTES");
      }
    } else if (arg == "--method") {
      method = next();
      core::PlannerOptions parsed;
      if (!core::ParseMethod(method, &parsed)) {
        return Fail("unknown --method '" + method + "'");
      }
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }

  std::ifstream file(rules_path);
  if (!file) return Fail("cannot open " + rules_path);
  std::stringstream ss;
  ss << file.rdbuf();
  std::string rules = ss.str();

  // Validate the rules once up front — per-request parsing re-checks, but a
  // typo in the rules file should fail fast, not on every line.
  {
    auto prog = dl::Parse(rules);
    if (!prog.ok()) return Fail("rules: " + prog.status().ToString());
    if (!prog->queries.empty()) {
      return Fail("rules file must not contain a query; queries arrive on "
                  "stdin");
    }
  }

  const bool net_follow = !connect_repl.empty();
  const bool follow_mode = !follow_dir.empty() || net_follow;
  if (!follow_dir.empty() && net_follow) {
    return Fail("--follow and --connect-repl are mutually exclusive");
  }
  if (follow_mode && !facts.empty()) {
    return Fail("--fact is incompatible with a standby mode (the "
                "replication stream is the standby's only source of state)");
  }
  if (!follow_dir.empty() && store_dir == follow_dir) {
    return Fail("--store and --follow must name different directories");
  }
  if (listen_repl && store_dir.empty()) {
    return Fail("--listen-repl needs --store DIR (the shipped directory)");
  }
  if (listen_repl && follow_mode) {
    return Fail("--listen-repl is a primary-side flag; a standby cannot "
                "also ship");
  }
  if (listen && follow_mode) {
    return Fail("--listen is incompatible with the standby modes: a reseed "
                "rebuilds the query service under the frontend (route "
                "queries to the primary, or PROMOTE first)");
  }

  // Graceful drain in every mode: the handler only writes one byte into a
  // self-pipe; the serving loops watch the pipe (TCP) or see EINTR +
  // triggered() (stdin).
  if (Status st = util::SignalPipe::Instance().Install({SIGTERM, SIGINT});
      !st.ok()) {
    return Fail("signal handling: " + st.ToString());
  }

  // Epoch-versioned EDB. With --store this recovers whatever checkpoint +
  // WAL the directory holds (a torn tail is truncated and reported, the
  // server still comes up on the consistent prefix); without it the store
  // is purely in-memory and CHECKPOINT is rejected. unique_ptrs because a
  // standby reseed tears the whole stack down and rebuilds it.
  std::unique_ptr<VersionedStore> store;
  std::unique_ptr<service::QueryService> svc;
  auto open_store = [&]() -> Status {
    VersionedStore::Options store_opts;
    store_opts.dir = store_dir;
    store = std::make_unique<VersionedStore>(store_opts);
    Status rec = store->Recover();
    if (rec.code() == StatusCode::kDataLoss) {
      std::fprintf(stderr, "mcm-serve: recovery: %s\n",
                   rec.ToString().c_str());
      rec = Status::OK();
    }
    return rec;
  };
  if (Status st = open_store(); !st.ok()) {
    return Fail("recovery: " + st.ToString());
  }
  if (!facts.empty()) {
    if (store->TipEpoch() > 0) {
      // The recovered store is the durable truth; silently re-bootstrapping
      // over it would fork history.
      std::fprintf(stderr,
                   "mcm-serve: --store already holds epoch %llu; "
                   "ignoring --fact files\n",
                   static_cast<unsigned long long>(store->TipEpoch()));
    } else {
      Database staging;
      for (const auto& [name, path] : facts) {
        Status st = LoadRelationTsv(&staging, name, path);
        if (!st.ok()) return Fail(st.ToString());
      }
      auto boot = store->BootstrapFromDatabase(staging);
      if (!boot.ok()) return Fail("bootstrap: " + boot.status().ToString());
    }
  }
  svc = std::make_unique<service::QueryService>(store.get(), opts);

  // Warm-standby plumbing. --follow: a paced FileTailSource reads the
  // primary's directory (bounded poll interval, capped backoff) and the
  // follower applies its frames. --connect-repl: a SocketSource reads the
  // frames a remote --listen-repl primary pumps at us; dead links are
  // reconnected under runtime::TransientPolicy::NextDelay pacing — the
  // same schedule the query service uses for its retries.
  std::unique_ptr<FileTailSource> tail;
  std::unique_ptr<SocketSource> net_source;
  std::unique_ptr<Follower> follower;
  bool promoted = false;
  uint64_t repl_flaps = 0, repl_failovers = 0, repl_reseeds = 0;
  const runtime::TransientPolicy repl_pacing;
  auto publish_gauges = [&]() {
    Follower::Health h = follower->health();
    svc->ReportReplication(h.primary_tip_epoch, h.applied_epoch);
    svc->ReportReplicationEvents(repl_flaps, repl_failovers, repl_reseeds);
  };
  auto connect_follower = [&]() -> Status {
    if (net_follow) {
      size_t colon = connect_repl.rfind(':');
      std::string host = connect_repl.substr(0, colon);
      uint16_t port = static_cast<uint16_t>(
          std::strtoul(connect_repl.c_str() + colon + 1, nullptr, 10));
      auto sock = util::Socket::Connect(host, port, /*timeout_ms=*/1000);
      if (!sock.ok()) return sock.status();
      SocketSource::Options src_opts;
      src_opts.read_timeout_ms = 25;
      net_source =
          std::make_unique<SocketSource>(std::move(*sock), src_opts);
      follower = std::make_unique<Follower>(store.get(), net_source.get());
      return Status::OK();
    }
    FileTailSource::Options tail_opts;
    tail_opts.dir = follow_dir;
    tail_opts.start_epoch = store->TipEpoch();
    tail = std::make_unique<FileTailSource>(tail_opts);
    follower = std::make_unique<Follower>(store.get(), tail.get());
    return Status::OK();
  };
  // One catch-up round: drain what the transport has, publish the gauges.
  // Over the network the remote primary pumps on its own schedule, so poll
  // until the lag stops shrinking (bounded); a cleanly-ended stream or a
  // string of connect failures counts one flap and is reconnected with
  // backed-off delays, resuming from the store tip.
  auto sync_follower = [&]() -> Status {
    Status st = Status::OK();
    for (int attempt = 0; attempt < 6; ++attempt) {
      if (follower == nullptr || (net_follow && follower->stream_ended())) {
        if (attempt == 0) ++repl_flaps;
        follower.reset();
        net_source.reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(
            repl_pacing.NextDelay(attempt, /*seed=*/0x73657276ULL)));
        st = connect_follower();
        if (!st.ok()) continue;
      }
      uint64_t before = follower->health().applied_epoch;
      st = follower->Poll();
      if (!st.ok()) break;  // caller classifies sticky vs transient
      Follower::Health h = follower->health();
      if (!net_follow) break;  // one paced directory read per sync
      if (h.lag_epochs() == 0 && h.primary_tip_epoch > 0 &&
          !follower->stream_ended()) {
        break;
      }
      if (h.applied_epoch == before) {
        // No progress: give the remote pump a beat, then try again.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    if (follower != nullptr) publish_gauges();
    return st;
  };
  // Catch-up with the reseed path: a standby that outran the retained WAL
  // (kFailedPrecondition) or received a torn stream (kDataLoss) is wiped
  // and rebuilt from the primary snapshot.
  auto sync_or_reseed = [&]() -> Status {
    Status st = sync_follower();
    if (!st.IsFailedPrecondition() && !st.IsDataLoss()) return st;
    std::fprintf(stderr, "mcm-serve: standby reseed: %s\n",
                 st.ToString().c_str());
    ++repl_reseeds;
    svc->Shutdown(/*drain=*/true);
    svc.reset();
    follower.reset();
    tail.reset();
    net_source.reset();
    store.reset();
    if (!store_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir, ec);
      if (ec) {
        return Status::Internal("cannot wipe standby dir '" + store_dir +
                                "': " + ec.message());
      }
    }
    MCM_RETURN_NOT_OK(open_store());
    svc = std::make_unique<service::QueryService>(store.get(), opts);
    MCM_RETURN_NOT_OK(connect_follower());
    return sync_follower();
  };
  if (follow_mode) {
    if (Status st = connect_follower(); !st.ok()) {
      return Fail("standby connect: " + st.ToString());
    }
    if (Status st = sync_or_reseed(); !st.ok()) {
      return Fail("follow: " + st.ToString());
    }
  }

  // Primary-side replication server: accept one follower at a time on the
  // loopback and pump the WAL at it until the link dies or we shut down.
  // Shipping reads the same files Commit appends to — safe while sharing
  // the store object (the acked-tip cap keeps un-fsynced tails private).
  std::unique_ptr<util::Listener> repl_listener;
  std::atomic<bool> repl_stop{false};
  std::thread repl_server;
  if (listen_repl) {
    auto bound = util::Listener::Bind(listen_repl_port);
    if (!bound.ok()) {
      return Fail("--listen-repl: " + bound.status().ToString());
    }
    repl_listener = std::make_unique<util::Listener>(std::move(*bound));
    std::fprintf(stderr, "mcm-serve: shipping replication on 127.0.0.1:%u\n",
                 static_cast<unsigned>(repl_listener->port()));
    repl_server = std::thread([&] {
      while (!repl_stop.load(std::memory_order_relaxed)) {
        auto conn = repl_listener->Accept(/*timeout_ms=*/200);
        if (!conn.ok()) continue;  // timeout or transient: keep listening
        SocketSink sink(std::move(*conn));
        WalShipper::Options ship_opts;
        ship_opts.dir = store_dir;
        ship_opts.primary = store.get();
        WalShipper shipper(ship_opts, &sink);
        // Fresh connection: ship from scratch (the follower's redelivery
        // no-op absorbs the overlap), then incrementally.
        Status shipped = shipper.Pump(0);
        while (shipped.ok() && !repl_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          shipped = shipper.Pump();
        }
        // Peer gone (or shutdown): drop the connection, accept the next.
      }
    });
  }
  // Control lines, shared verbatim between the stdin loop and the TCP
  // frontend: both hand the trimmed line here first, print/queue whatever
  // comes back, and fall through to query parsing on nullopt. Runs on the
  // serving thread (main for stdin, the frontend loop for TCP) — never
  // concurrently with itself.
  int protocol_failures = 0;
  auto handle_control =
      [&](std::string_view trimmed) -> std::optional<std::string> {
    const bool read_only = follow_mode && !promoted;
    if (trimmed == ":stats") {
      return "stats: " + svc->stats().ToString() + "\n";
    }
    if (StartsWith(trimmed, "UPDATE")) {
      if (read_only) {
        return StringPrintf(
            "update error: read-only replica (PROMOTE to take writes); tip "
            "stays at epoch %llu\n",
            static_cast<unsigned long long>(store->TipEpoch()));
      }
      UpdateBatch batch;
      std::string err;
      if (!ParseUpdateOps(trimmed.substr(6), &batch, &err)) {
        return StringPrintf(
            "update error: %s (tip stays at epoch %llu)\n", err.c_str(),
            static_cast<unsigned long long>(store->TipEpoch()));
      }
      if (auto epoch = store->Commit(batch); !epoch.ok()) {
        return StringPrintf(
            "update error: %s (tip stays at epoch %llu)\n",
            epoch.status().ToString().c_str(),
            static_cast<unsigned long long>(store->TipEpoch()));
      } else {
        return StringPrintf("update: epoch %llu (%zu ops)\n",
                            static_cast<unsigned long long>(*epoch),
                            batch.ops.size());
      }
    }
    if (trimmed == "CHECKPOINT") {
      if (read_only) {
        return std::string(
            "checkpoint error: read-only replica (PROMOTE first)\n");
      }
      if (Status st = store->Checkpoint(); !st.ok()) {
        return "checkpoint error: " + st.ToString() + "\n";
      }
      return StringPrintf("checkpoint: epoch %llu\n",
                          static_cast<unsigned long long>(store->TipEpoch()));
    }
    if (trimmed == "PROMOTE") {
      if (!follow_mode) {
        return std::string(
            "promote error: not a standby (no --follow / --connect-repl)\n");
      }
      if (promoted) {
        return StringPrintf("promote: already primary at epoch %llu\n",
                            static_cast<unsigned long long>(
                                store->TipEpoch()));
      }
      // Final catch-up, then the lost-acked-tail check inside Promote().
      Status st = sync_or_reseed();
      if (st.ok()) st = follower->Promote();
      if (!st.ok()) {
        ++protocol_failures;
        return "promote error: " + st.ToString() + "\n";
      }
      promoted = true;
      ++repl_failovers;
      publish_gauges();
      return StringPrintf("promote: serving writes at epoch %llu\n",
                          static_cast<unsigned long long>(store->TipEpoch()));
    }
    return std::nullopt;
  };

  util::SignalPipe& signals = util::SignalPipe::Instance();
  int failures = 0;

  if (listen) {
    // TCP mode: the hardened readiness loop owns the protocol end to end;
    // SIGTERM/SIGINT reach it through the self-pipe fd and begin drain.
    service::FrontendOptions fopts;
    fopts.port = listen_port;
    fopts.rules = rules;
    fopts.method = method;
    fopts.shutdown_fd = signals.fd();
    fopts.control_handler = handle_control;
    service::Frontend frontend(svc.get(), fopts);
    if (Status st = frontend.Start(); !st.ok()) {
      return Fail("--listen: " + st.ToString());
    }
    std::fprintf(stderr, "mcm-serve: serving queries on 127.0.0.1:%u\n",
                 static_cast<unsigned>(frontend.port()));
    frontend.Run();
    if (signals.triggered()) {
      std::fprintf(stderr, "mcm-serve: signal %d: drained, shutting down\n",
                   signals.last_signal());
    }
  } else {
    // stdin mode. A signal interrupts the blocking getline (the handler is
    // installed without SA_RESTART) and triggered() stops the loop; either
    // way every admitted request below is still answered in order.
    const service::protocol::LineLimits line_limits;
    std::vector<std::shared_ptr<service::QueryTicket>> tickets;
    std::string line;
    while (!signals.triggered() && std::getline(std::cin, line)) {
      std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      if (Status san = service::protocol::SanitizeLine(line, line_limits);
          !san.ok()) {
        std::printf("[-] error: %s\n", san.message().c_str());
        std::fflush(stdout);
        continue;
      }
      if (std::optional<std::string> reply = handle_control(trimmed)) {
        std::fputs(reply->c_str(), stdout);
        std::fflush(stdout);
        continue;
      }
      // A standby re-syncs before admitting each query so reads are as
      // fresh as the primary's durable state at submission; the query then
      // pins exactly the applied epoch.
      if (follow_mode && !promoted) {
        if (Status st = sync_or_reseed(); !st.ok()) {
          std::fprintf(stderr, "mcm-serve: follow: %s\n",
                       st.ToString().c_str());
          if (!runtime::IsTransient(st)) ++protocol_failures;
        }
      }
      auto prefixes = service::protocol::ParsePrefixes(trimmed);
      if (!prefixes.ok()) {
        std::printf("[-] error: %s\n", prefixes.status().message().c_str());
        std::fflush(stdout);
        continue;
      }
      tickets.push_back(
          svc->Submit(service::protocol::MakeRequest(rules, *prefixes, method)));
    }
    if (signals.triggered()) {
      std::fprintf(stderr,
                   "mcm-serve: signal %d: draining %zu in-flight "
                   "request(s)\n",
                   signals.last_signal(), tickets.size());
    }

    // Drain and answer in submission order (execution was concurrent).
    for (const auto& ticket : tickets) {
      service::QueryResponse resp = ticket->Get();
      if (resp.outcome != service::Outcome::kOk) ++failures;
      std::fputs(service::protocol::FormatResponse(ticket->id(), resp).c_str(),
                 stdout);
    }
    std::fflush(stdout);
  }

  if (repl_server.joinable()) {
    repl_stop.store(true, std::memory_order_relaxed);
    repl_server.join();
  }
  svc->Shutdown(/*drain=*/true);
  std::fprintf(stderr, "mcm-serve: %s\n", svc->stats().ToString().c_str());
  // An operator-requested drain is a clean exit no matter what was shed
  // mid-flight; otherwise per-request failures drive the exit code.
  if (signals.triggered()) return 0;
  return failures == 0 && protocol_failures == 0 ? 0 : 1;
}
