// Per-query-signature circuit breaker over the degradation ladder.
//
// The PR 2 ladder already recovers from a divergent counting attempt, but it
// pays for the doomed attempt every time: a cyclic instance burns a full
// iteration-cap's worth of rounds before magic sets answer. The breaker
// remembers *which* signatures (the normalized program text, query
// binding included) keep diverging and, after K strikes, short-circuits
// them straight to the safe magic-set rung (core::Strategy::kMagicSets).
// After a cooldown the breaker
// half-opens and lets exactly one probe request try counting again — data
// changes between requests, so a once-cyclic reachable subgraph may have
// become acyclic; success closes the circuit, another divergence re-opens it.
//
// Thread-safe: one breaker is shared by all QueryService workers. The
// internal mutex sits at rank 2 of the lock-order registry (util/mutex.h):
// it may be acquired while holding QueryService::mu_ (the stats path) but
// never the other way around — checked at compile time under
// -DMCM_THREAD_SAFETY=ON.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcm::service {

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  enum class State : uint8_t {
    kClosed,    ///< counting attempts allowed (default)
    kOpen,      ///< short-circuit to the safe rung until the cooldown ends
    kHalfOpen,  ///< cooldown over: one probe may try counting again
  };

  struct Options {
    /// Divergence strikes before the circuit opens (the issue's K).
    int strike_threshold = 3;
    /// How long an open circuit rejects before half-opening. Also bounds
    /// how long a half-open probe may stay unresolved before another
    /// request is allowed to probe (a probe that dies without reporting
    /// must not wedge the breaker).
    std::chrono::milliseconds cooldown{5000};
    /// Injectable clock for tests; defaults to Clock::now.
    std::function<Clock::time_point()> now;
  };

  CircuitBreaker() : CircuitBreaker(Options{}) {}
  explicit CircuitBreaker(Options options);

  /// May this request attempt the unsafe counting rung? Claims the probe
  /// slot when the answer is yes on a half-open circuit. A caller that was
  /// granted true MUST follow up with exactly one of RecordDivergence /
  /// RecordSuccess / RecordAbandoned for the same signature.
  bool AllowUnsafe(const std::string& signature);

  /// The counting rung diverged (iteration/tuple/memory cap) for this
  /// signature: one strike; at the threshold — or on a failed half-open
  /// probe — the circuit opens for a cooldown.
  void RecordDivergence(const std::string& signature);

  /// The counting rung completed: close the circuit and forget strikes.
  void RecordSuccess(const std::string& signature);

  /// The request finished without a verdict on counting (cancelled, parse
  /// error, deadline before the rung ran, ...): release the probe slot so
  /// the next request can probe; strikes are unchanged.
  void RecordAbandoned(const std::string& signature);

  State StateOf(const std::string& signature) const;
  int StrikeCount(const std::string& signature) const;

  /// Total times any signature tripped open (service stats).
  uint64_t open_count() const;

 private:
  struct Entry {
    int strikes = 0;
    State state = State::kClosed;
    Clock::time_point open_until{};
    bool probe_in_flight = false;
    Clock::time_point probe_started{};
  };

  Clock::time_point Now() const { return options_.now ? options_.now() : Clock::now(); }
  void Open(Entry* e) MCM_REQUIRES(mu_);

  Options options_;
  mutable util::Mutex mu_ MCM_ACQUIRED_AFTER(util::kLockRankBreaker)
      MCM_ACQUIRED_BEFORE(util::kLockRankStoreCommit);
  std::unordered_map<std::string, Entry> entries_ MCM_GUARDED_BY(mu_);
  uint64_t open_count_ MCM_GUARDED_BY(mu_) = 0;
};

std::string_view BreakerStateToString(CircuitBreaker::State s);

}  // namespace mcm::service
