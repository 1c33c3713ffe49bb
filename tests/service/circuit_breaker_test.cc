// Per-signature circuit breaker: strike accounting, open/half-open/closed
// transitions under an injectable clock, probe-slot discipline, and the
// end-to-end integration where a repeatedly diverging query is short-
// circuited straight to the safe magic-set rung by the service.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "datalog/parser.h"
#include "service/circuit_breaker.h"
#include "service/query_service.h"
#include "storage/versioned_store.h"
#include "util/fault_injection.h"
#include "workload/generators.h"

namespace mcm::service {
namespace {

using std::chrono::milliseconds;

constexpr const char* kSig = "p(0, Y)? @ cyclic";

/// Breaker with a hand-cranked clock.
struct FakeClockBreaker {
  CircuitBreaker::Clock::time_point now{};
  CircuitBreaker breaker;

  explicit FakeClockBreaker(int strikes, milliseconds cooldown)
      : breaker(MakeOptions(strikes, cooldown, &now)) {}

  static CircuitBreaker::Options MakeOptions(
      int strikes, milliseconds cooldown,
      CircuitBreaker::Clock::time_point* now) {
    CircuitBreaker::Options o;
    o.strike_threshold = strikes;
    o.cooldown = cooldown;
    o.now = [now] { return *now; };
    return o;
  }

  void Advance(milliseconds d) { now += d; }
};

TEST(CircuitBreakerTest, UnknownSignatureIsClosedAndAllowed) {
  CircuitBreaker b;
  EXPECT_TRUE(b.AllowUnsafe(kSig));
  EXPECT_EQ(b.StateOf(kSig), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.StrikeCount(kSig), 0);
  EXPECT_EQ(b.open_count(), 0u);
}

TEST(CircuitBreakerTest, OpensAfterExactlyKStrikes) {
  FakeClockBreaker f(/*strikes=*/3, milliseconds(100));
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(f.breaker.AllowUnsafe(kSig));
    f.breaker.RecordDivergence(kSig);
    EXPECT_EQ(f.breaker.StateOf(kSig), CircuitBreaker::State::kClosed)
        << "strike " << i + 1 << " must not open yet";
  }
  EXPECT_TRUE(f.breaker.AllowUnsafe(kSig));
  f.breaker.RecordDivergence(kSig);  // third strike
  EXPECT_EQ(f.breaker.StateOf(kSig), CircuitBreaker::State::kOpen);
  EXPECT_EQ(f.breaker.StrikeCount(kSig), 3);
  EXPECT_EQ(f.breaker.open_count(), 1u);
  EXPECT_FALSE(f.breaker.AllowUnsafe(kSig));
}

TEST(CircuitBreakerTest, SignaturesAreIndependent) {
  FakeClockBreaker f(/*strikes=*/1, milliseconds(100));
  f.breaker.RecordDivergence("bad");
  EXPECT_FALSE(f.breaker.AllowUnsafe("bad"));
  EXPECT_TRUE(f.breaker.AllowUnsafe("good"));
  EXPECT_EQ(f.breaker.StateOf("good"), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, SuccessFullyHeals) {
  FakeClockBreaker f(/*strikes=*/3, milliseconds(100));
  f.breaker.RecordDivergence(kSig);
  f.breaker.RecordDivergence(kSig);
  EXPECT_EQ(f.breaker.StrikeCount(kSig), 2);
  f.breaker.RecordSuccess(kSig);
  // Strikes do not linger after a success: the entry is gone.
  EXPECT_EQ(f.breaker.StrikeCount(kSig), 0);
  EXPECT_EQ(f.breaker.StateOf(kSig), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, CooldownHalfOpensAndAdmitsOneProbe) {
  FakeClockBreaker f(/*strikes=*/1, milliseconds(100));
  f.breaker.RecordDivergence(kSig);
  EXPECT_FALSE(f.breaker.AllowUnsafe(kSig));

  f.Advance(milliseconds(99));
  EXPECT_FALSE(f.breaker.AllowUnsafe(kSig)) << "cooldown not over yet";

  f.Advance(milliseconds(1));
  EXPECT_EQ(f.breaker.StateOf(kSig), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(f.breaker.AllowUnsafe(kSig)) << "first probe admitted";
  EXPECT_FALSE(f.breaker.AllowUnsafe(kSig))
      << "second request while the probe is in flight must take the safe rung";
}

TEST(CircuitBreakerTest, ProbeSuccessClosesProbeFailureReopens) {
  FakeClockBreaker f(/*strikes=*/1, milliseconds(100));
  f.breaker.RecordDivergence(kSig);
  f.Advance(milliseconds(100));
  ASSERT_TRUE(f.breaker.AllowUnsafe(kSig));
  f.breaker.RecordDivergence(kSig);  // probe failed
  EXPECT_EQ(f.breaker.StateOf(kSig), CircuitBreaker::State::kOpen);
  EXPECT_EQ(f.breaker.open_count(), 2u);

  f.Advance(milliseconds(100));
  ASSERT_TRUE(f.breaker.AllowUnsafe(kSig));
  f.breaker.RecordSuccess(kSig);  // probe succeeded
  EXPECT_EQ(f.breaker.StateOf(kSig), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(f.breaker.AllowUnsafe(kSig));
}

TEST(CircuitBreakerTest, AbandonedProbeReleasesTheSlot) {
  FakeClockBreaker f(/*strikes=*/1, milliseconds(100));
  f.breaker.RecordDivergence(kSig);
  f.Advance(milliseconds(100));
  ASSERT_TRUE(f.breaker.AllowUnsafe(kSig));
  ASSERT_FALSE(f.breaker.AllowUnsafe(kSig));
  f.breaker.RecordAbandoned(kSig);  // probe cancelled before a verdict
  EXPECT_TRUE(f.breaker.AllowUnsafe(kSig))
      << "slot must be free again immediately";
}

TEST(CircuitBreakerTest, DeadProbeSlotIsReclaimedAfterACooldown) {
  FakeClockBreaker f(/*strikes=*/1, milliseconds(100));
  f.breaker.RecordDivergence(kSig);
  f.Advance(milliseconds(100));
  ASSERT_TRUE(f.breaker.AllowUnsafe(kSig));
  // The probe never reports (worker crashed, promise dropped...). After a
  // full cooldown the slot is presumed dead and handed to the next caller.
  f.Advance(milliseconds(99));
  EXPECT_FALSE(f.breaker.AllowUnsafe(kSig));
  f.Advance(milliseconds(1));
  EXPECT_TRUE(f.breaker.AllowUnsafe(kSig));
}

TEST(CircuitBreakerTest, ThresholdClampedToAtLeastOne) {
  CircuitBreaker::Options o;
  o.strike_threshold = 0;
  CircuitBreaker b(o);
  b.RecordDivergence(kSig);
  EXPECT_FALSE(b.AllowUnsafe(kSig)) << "threshold 0 behaves as 1";
}

TEST(CircuitBreakerTest, StateToStringCoversAllStates) {
  EXPECT_EQ(BreakerStateToString(CircuitBreaker::State::kClosed), "closed");
  EXPECT_EQ(BreakerStateToString(CircuitBreaker::State::kOpen), "open");
  EXPECT_EQ(BreakerStateToString(CircuitBreaker::State::kHalfOpen),
            "half_open");
}

// ---------------------------------------------------------------------------
// Integration: the breaker inside a QueryService.

constexpr const char* kCslSrc = R"(
  p(X, Y) :- e(X, Y).
  p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
  p(0, Y)?
)";

/// Instance on which plain counting diverges (cyclic magic graph) but the
/// safe rungs answer fine.
workload::CslData CyclicData() {
  workload::CslData data;
  data.l = {{0, 1}, {1, 0}};
  data.e = {{0, 100}, {1, 101}};
  data.r = {{100, 101}};
  data.source = 0;
  return data;
}

/// A store holding `data` at epoch 1.
std::unique_ptr<VersionedStore> StoreOf(const workload::CslData& data) {
  Database db;
  data.Load(&db);
  auto store = std::make_unique<VersionedStore>();
  EXPECT_TRUE(store->Recover().ok());
  EXPECT_TRUE(store->BootstrapFromDatabase(db).ok());
  return store;
}

QueryRequest UnsafeCountingRequest() {
  QueryRequest req;
  req.program_text = kCslSrc;
  req.planner.strategy = core::Strategy::kCounting;
  req.planner.allow_fallback = true;
  return req;
}

class BreakerIntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjection::Instance().DisarmAll(); }
};

TEST_F(BreakerIntegrationTest, RepeatedDivergenceShortCircuitsToMagicSets) {
  auto store = StoreOf(CyclicData());

  ServiceOptions opts;
  opts.workers = 1;  // serialize: strikes accumulate deterministically
  opts.breaker.strike_threshold = 2;
  opts.breaker.cooldown = std::chrono::milliseconds(60000);
  QueryService svc(store.get(), opts);

  // First two requests pay for the doomed counting attempt (ladder saves
  // them), accumulating strikes.
  for (int i = 0; i < 2; ++i) {
    auto resp = svc.Submit(UnsafeCountingRequest())->Get();
    ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
    EXPECT_FALSE(resp.breaker_short_circuit);
    ASSERT_GE(resp.report.attempts.size(), 2u);
    EXPECT_EQ(resp.report.attempts[0].method, "counting");
    EXPECT_FALSE(resp.report.attempts[0].status.ok());
  }

  // Third request: circuit open — straight to magic sets, no counting rung.
  auto resp = svc.Submit(UnsafeCountingRequest())->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_TRUE(resp.breaker_short_circuit);
  ASSERT_EQ(resp.report.attempts.size(), 1u);
  EXPECT_EQ(resp.report.attempts[0].method, "magic_sets");

  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.breaker_short_circuits, 1u);
  EXPECT_EQ(stats.breaker_opens, 1u);
  svc.Shutdown(/*drain=*/true);

  // All three answered identically despite the different routes.
  EXPECT_FALSE(resp.report.results.empty());
}

TEST_F(BreakerIntegrationTest, CooldownLetsAProbeTryCountingAgain) {
  auto store = StoreOf(CyclicData());

  ServiceOptions opts;
  opts.workers = 1;
  opts.breaker.strike_threshold = 1;
  opts.breaker.cooldown = std::chrono::milliseconds(50);
  QueryService svc(store.get(), opts);

  auto first = svc.Submit(UnsafeCountingRequest())->Get();
  ASSERT_EQ(first.outcome, Outcome::kOk) << first.status.ToString();
  EXPECT_EQ(first.report.attempts[0].method, "counting");  // paid once

  // Open: short-circuited.
  auto second = svc.Submit(UnsafeCountingRequest())->Get();
  ASSERT_EQ(second.outcome, Outcome::kOk);
  EXPECT_TRUE(second.breaker_short_circuit);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Half-open: the probe attempts counting again (and re-opens on the
  // renewed divergence, but still answers through the ladder).
  auto probe = svc.Submit(UnsafeCountingRequest())->Get();
  ASSERT_EQ(probe.outcome, Outcome::kOk) << probe.status.ToString();
  EXPECT_FALSE(probe.breaker_short_circuit);
  ASSERT_GE(probe.report.attempts.size(), 2u);
  EXPECT_EQ(probe.report.attempts[0].method, "counting");
  EXPECT_GE(svc.stats().breaker_opens, 2u);
  svc.Shutdown(/*drain=*/true);
}

TEST_F(BreakerIntegrationTest, SafeRequestsNeverConsultTheBreaker) {
  auto store = StoreOf(workload::MakeFigure1Style());

  ServiceOptions opts;
  opts.workers = 1;
  opts.breaker.strike_threshold = 1;
  QueryService svc(store.get(), opts);

  // Default planner options (Strategy::kSafe): the safe MC method needs no
  // breaker permission and records no probe.
  QueryRequest req;
  req.program_text = kCslSrc;
  auto resp = svc.Submit(std::move(req))->Get();
  ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
  EXPECT_FALSE(resp.breaker_short_circuit);
  EXPECT_EQ(svc.stats().breaker_short_circuits, 0u);
  svc.Shutdown(/*drain=*/true);
}

TEST_F(BreakerIntegrationTest, SpellingsAndPreParsedCopiesShareOneCircuit) {
  auto store = StoreOf(CyclicData());

  ServiceOptions opts;
  opts.workers = 1;
  opts.breaker.strike_threshold = 3;
  opts.breaker.cooldown = std::chrono::milliseconds(60000);
  QueryService svc(store.get(), opts);

  // One program three ways: as written, respaced with a comment, and
  // pre-parsed. Each pays for the doomed counting attempt once, and all
  // three strikes land on the same signature.
  QueryRequest respaced = UnsafeCountingRequest();
  respaced.program_text =
      "% the same query, spelled differently\n"
      "p(X,Y) :- e(X,Y).\n"
      "p(X, Y) :-\n    l(X, X1), p(X1, Y1),   r(Y, Y1).\n"
      "p(0,Y)?\n";
  QueryRequest pre_parsed = UnsafeCountingRequest();
  auto program = dl::Parse(kCslSrc);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  pre_parsed.program = *program;
  for (const QueryRequest& req :
       {UnsafeCountingRequest(), respaced, pre_parsed}) {
    auto resp = svc.Submit(req)->Get();
    ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
    EXPECT_FALSE(resp.breaker_short_circuit);
    ASSERT_FALSE(resp.report.attempts.empty());
    EXPECT_EQ(resp.report.attempts[0].method, "counting");
  }
  EXPECT_EQ(svc.stats().breaker_opens, 1u);

  // The circuit is open for every spelling.
  for (const QueryRequest& req :
       {UnsafeCountingRequest(), respaced, pre_parsed}) {
    auto resp = svc.Submit(req)->Get();
    ASSERT_EQ(resp.outcome, Outcome::kOk) << resp.status.ToString();
    EXPECT_TRUE(resp.breaker_short_circuit);
  }
  svc.Shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace mcm::service
