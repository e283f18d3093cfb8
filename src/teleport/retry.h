#ifndef TELEPORT_TELEPORT_RETRY_H_
#define TELEPORT_TELEPORT_RETRY_H_

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "common/units.h"
#include "net/fabric.h"

namespace teleport::tp {

/// Capped exponential backoff with deterministic jitter: the timing of
/// `Retry`, the one loop through which the runtime retries RPCs that went
/// silent — page faults, heartbeats and pushdown requests/responses (§3.2
/// failure handling). All waiting is accounted on the caller's virtual
/// clock; jitter comes from a seeded common/rng stream so runs are
/// reproducible bit-for-bit.
///
/// Header-only because the ddc layer (page-fault path) retries without
/// linking against teleport_core.
struct RetryPolicy {
  /// Send attempts per retry round (>= 1).
  int max_attempts = 5;
  /// Retransmission timeout: how long the caller waits in silence before
  /// declaring an attempt lost.
  Nanos rto_ns = 50 * kMicrosecond;
  /// Backoff added to the k-th retry: base * multiplier^k, capped.
  Nanos base_backoff_ns = 20 * kMicrosecond;
  Nanos max_backoff_ns = 2 * kMillisecond;
  double multiplier = 2.0;
  /// Backoff is scaled by a factor drawn uniformly from
  /// [1 - jitter_frac, 1 + jitter_frac].
  double jitter_frac = 0.25;

  /// Backoff wait before retry number `retry` (0-based), with deterministic
  /// jitter drawn from `rng`. Always >= 0.
  Nanos BackoffFor(int retry, Rng& rng) const {
    double b = static_cast<double>(base_backoff_ns);
    for (int i = 0; i < retry; ++i) {
      b *= multiplier;
      if (b >= static_cast<double>(max_backoff_ns)) break;
    }
    b = std::min(b, static_cast<double>(max_backoff_ns));
    if (jitter_frac > 0.0) {
      b *= 1.0 + jitter_frac * (2.0 * rng.NextDouble() - 1.0);
    }
    return std::max<Nanos>(0, static_cast<Nanos>(b));
  }
};

/// Outcome of one retried RPC.
struct RetryResult {
  bool delivered = false;    ///< some attempt got through
  net::SendOutcome outcome;  ///< the winning attempt's outcome
  /// Send time of the winning attempt, or where the caller's clock stands
  /// after the last lost one (the give-up time).
  Nanos at = 0;
  uint64_t retries = 0;  ///< lost attempts
  Nanos waited = 0;      ///< RTO + backoff + outage waits, at - now
};

/// Runs `attempt(t)` — one fault-visible `Try*` call sent at `t` that
/// returns a net::SendOutcome — until a send gets through. Each lost
/// attempt costs `rto_ns` plus jittered backoff, then waits out any known
/// outage of memory shard `shard` (the heartbeat thread tells the kernel
/// when the pool answers again, §3.2), then calls `on_retry(t)` with the
/// new send time. A round is `policy.max_attempts` attempts, with backoff
/// restarting each round; the loop gives up after `rounds` rounds, or after
/// the current round once `shard` will never heal. The caller decides what
/// giving up means: the reliable transport, a local re-run, or a panic.
///
/// Without a fault injector a `Try*` send always gets through with the
/// timing of its reliable twin, so a fault-free run takes the first attempt
/// and draws nothing from `rng`.
template <typename Attempt, typename OnRetry>
RetryResult Retry(const net::Fabric& fabric, int shard,
                  const RetryPolicy& policy, Rng& rng, Nanos now, int rounds,
                  Attempt&& attempt, OnRetry&& on_retry) {
  RetryResult r;
  r.at = now;
  const int attempts = std::max(1, policy.max_attempts);
  for (int round = 0; round < rounds; ++round) {
    for (int a = 0; a < attempts; ++a) {
      r.outcome = attempt(r.at);
      if (r.outcome.delivered) {
        r.delivered = true;
        return r;
      }
      Nanos t = r.at + policy.rto_ns + policy.BackoffFor(a, rng);
      const Nanos heal = fabric.NextReachableAt(t, shard);
      if (heal > t) t = heal;
      r.waited += t - r.at;
      r.at = t;
      ++r.retries;
      on_retry(r.at);
    }
    if (fabric.NextReachableAt(r.at, shard) == net::Fabric::kNeverHeals) {
      break;
    }
  }
  return r;
}

}  // namespace teleport::tp

#endif  // TELEPORT_TELEPORT_RETRY_H_
