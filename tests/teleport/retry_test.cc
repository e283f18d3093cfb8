// Unit tests of tp::Retry, the one §3.2 retry loop behind page faults,
// heartbeats and pushdown transfers. Each test scripts `attempt` on a real
// Fabric (whose reachability timeline the loop consults) and pins the exact
// virtual timing: send times, total wait, retry count and on_retry times.

#include "teleport/retry.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/fabric.h"
#include "net/faults.h"

namespace teleport::tp {
namespace {

/// Jitter-free policy so every wait is a closed form: attempt `a` of a round
/// costs rto + base * 2^a.
RetryPolicy ExactPolicy() {
  RetryPolicy p;
  p.max_attempts = 2;
  p.rto_ns = 50 * kMicrosecond;
  p.base_backoff_ns = 20 * kMicrosecond;
  p.max_backoff_ns = 2 * kMillisecond;
  p.multiplier = 2.0;
  p.jitter_frac = 0.0;
  return p;
}

constexpr Nanos kStart = 1'000;
constexpr Nanos kRtt = 3'000;  ///< scripted round trip of a delivered attempt

/// What one scripted Retry did: its result, every attempt's send time and
/// every on_retry time.
struct Observed {
  RetryResult result;
  std::vector<Nanos> sends;
  std::vector<Nanos> retried_at;
};

/// Runs Retry with a scripted RPC that loses its first `lose_first`
/// attempts and every attempt sent before `deliver_from`.
Observed RunScript(const net::Fabric& fabric, int rounds, int lose_first,
                   Nanos deliver_from = 0) {
  Observed run;
  Rng rng(7);
  run.result = Retry(
      fabric, /*shard=*/0, ExactPolicy(), rng, kStart, rounds,
      [&](Nanos t) {
        run.sends.push_back(t);
        const bool lost = static_cast<int>(run.sends.size()) <= lose_first ||
                          t < deliver_from;
        return lost ? net::SendOutcome{false, 0}
                    : net::SendOutcome{true, t + kRtt};
      },
      [&](Nanos t) { run.retried_at.push_back(t); });
  return run;
}

constexpr int kLoseAll = 1'000;

TEST(RetryTest, DeliveryOnAttemptKAcrossARoundBoundary) {
  // Attempt 4 wins: two lost attempts fill round 0 (backoff 20, 40 us),
  // then backoff restarts at 20 us in round 1.
  net::Fabric fabric(sim::CostParams::Default());
  const Observed run = RunScript(fabric, /*rounds=*/16, /*lose_first=*/3);
  const Nanos rto = 50 * kMicrosecond;
  const std::vector<Nanos> sends = {
      kStart, kStart + rto + 20'000, kStart + 2 * rto + 60'000,
      kStart + 3 * rto + 80'000};
  EXPECT_EQ(run.sends, sends);
  EXPECT_EQ(run.retried_at,
            std::vector<Nanos>(sends.begin() + 1, sends.end()));
  EXPECT_TRUE(run.result.delivered);
  EXPECT_EQ(run.result.at, sends.back());
  EXPECT_EQ(run.result.outcome.deliver_at, sends.back() + kRtt);
  EXPECT_EQ(run.result.retries, 3u);
  EXPECT_EQ(run.result.waited, sends.back() - kStart);
}

TEST(RetryTest, EveryAttemptLostGivesUpAfterTheLastRound) {
  net::Fabric fabric(sim::CostParams::Default());
  const Observed run = RunScript(fabric, /*rounds=*/3, kLoseAll);
  // 3 rounds x 2 attempts, each round costing (50+20) + (50+40) us.
  ASSERT_EQ(run.sends.size(), 6u);
  EXPECT_EQ(run.retried_at.size(), 6u);
  EXPECT_FALSE(run.result.delivered);
  EXPECT_EQ(run.result.retries, 6u);
  EXPECT_EQ(run.result.at, kStart + 3 * 160 * kMicrosecond);
  EXPECT_EQ(run.result.waited, 3 * 160 * kMicrosecond);
  EXPECT_EQ(run.retried_at.back(), run.result.at);
}

TEST(RetryTest, KnownOutageIsWaitedOutBeforeTheRetry) {
  // Shard 0 is down over [0, 1 ms): the first retry would land at 71 us,
  // inside the outage, so it waits until the heal time and goes through.
  net::Fabric fabric(sim::CostParams::Default());
  const Nanos heal = kMillisecond;
  net::FaultInjector inj(/*seed=*/1);
  inj.AddOutage(0, heal);
  fabric.set_fault_injector(&inj);
  const Observed run =
      RunScript(fabric, /*rounds=*/16, /*lose_first=*/0, heal);
  EXPECT_EQ(run.sends, (std::vector<Nanos>{kStart, heal}));
  EXPECT_EQ(run.retried_at, std::vector<Nanos>{heal});
  EXPECT_TRUE(run.result.delivered);
  EXPECT_EQ(run.result.at, heal);
  EXPECT_EQ(run.result.outcome.deliver_at, heal + kRtt);
  EXPECT_EQ(run.result.retries, 1u);
  EXPECT_EQ(run.result.waited, heal - kStart);
}

TEST(RetryTest, ShardThatNeverHealsStopsAfterOneRound) {
  net::Fabric fabric(sim::CostParams::Default());
  fabric.InjectFailureWindowOn(0, 0);  // permanent: kNeverHeals
  const Observed run = RunScript(fabric, /*rounds=*/16, kLoseAll);
  ASSERT_EQ(run.sends.size(), 2u);  // one round of max_attempts, not 16
  const Nanos round = 160 * kMicrosecond;
  EXPECT_EQ(run.retried_at,
            (std::vector<Nanos>{kStart + 70 * kMicrosecond, kStart + round}));
  EXPECT_FALSE(run.result.delivered);
  EXPECT_EQ(run.result.retries, 2u);
  EXPECT_EQ(run.result.at, kStart + round);
  EXPECT_EQ(run.result.waited, round);
}

TEST(RetryTest, FaultFreeFabricTakesTheFirstAttemptAtReliableTiming) {
  // Without an injector a Try* round trip is the reliable one: same
  // completion time, no retry, and not one draw from the jitter stream.
  net::Fabric tried(sim::CostParams::Default());
  net::Fabric reliable(sim::CostParams::Default());
  Rng rng(11);
  int retries_seen = 0;
  const RetryResult r = Retry(
      tried, 0, RetryPolicy{}, rng, kStart, /*rounds=*/16,
      [&](Nanos t) {
        return tried.TryRoundTripFromCompute(
            net::Link{}, t, 64, 4160, 2'000,
            net::MessageKind::kPageFaultRequest,
            net::MessageKind::kPageFaultReply);
      },
      [&](Nanos) { ++retries_seen; });
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.outcome.deliver_at,
            reliable.RoundTripFromCompute(net::Link{}, kStart, 64, 4160,
                                          2'000));
  EXPECT_EQ(r.at, kStart);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.waited, 0);
  EXPECT_EQ(retries_seen, 0);
  EXPECT_EQ(rng.Next(), Rng(11).Next());
  EXPECT_EQ(tried.total_messages(), reliable.total_messages());
  EXPECT_EQ(tried.KindBreakdownToString(), reliable.KindBreakdownToString());
}

}  // namespace
}  // namespace teleport::tp
