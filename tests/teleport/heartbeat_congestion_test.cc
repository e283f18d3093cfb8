// PR9 satellite: the heartbeat liveness deadline is congestion-aware.
//
// The fabric-contention model makes queue wait real: a heartbeat probe sent
// into a saturated link sits behind megabytes of backlog before its 64
// bytes ever hit the wire. A fixed RTT deadline would fence that shard even
// though the pool is perfectly healthy — the §3.2 panic is for dead pools,
// not busy fabrics. CheckHeartbeat therefore budgets
// `heartbeat_deadline_ns + QueueBacklogNs(link, send time)`: observable
// queue residency is excused, and only delay beyond it panics.

#include <cstdint>

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "net/faults.h"
#include "teleport/pushdown.h"

namespace teleport::tp {
namespace {

using ddc::DdcConfig;
using ddc::MemorySystem;
using ddc::Platform;
using ddc::Pool;

constexpr uint64_t kPage = 4096;

DdcConfig Config() {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 16 * kPage;
  c.memory_pool_bytes = 1024 * kPage;
  return c;
}

/// Queues `sends` x `bytes` on the compute->memory direction of `link` at
/// t=0, leaving the link with a multi-millisecond service backlog.
void Saturate(MemorySystem& ms, net::Link link, int sends, uint64_t bytes) {
  for (int i = 0; i < sends; ++i) {
    (void)ms.fabric().SendToMemory(link, 0, bytes);
  }
}

TEST(HeartbeatCongestionTest, SaturatedButHealthyShardIsNeverFenced) {
  // 80 MB of backlog at 7 B/ns is ~11.4 ms of queue wait — more than twice
  // the 5 ms deadline. The probe's RTT blows through the fixed budget, but
  // every nanosecond of it is visible backlog, so the shard stays healthy.
  MemorySystem ms(Config(), sim::CostParams::Default(), 32 << 20);
  ms.fabric().set_backend(net::Backend::kQueuedRdma);
  PushdownRuntime runtime(&ms);
  Saturate(ms, net::Link{0, 0}, /*sends=*/10, /*bytes=*/8 << 20);
  ASSERT_GT(ms.fabric().QueueBacklogNs(net::Link{0, 0}, 0),
            ms.params().heartbeat_deadline_ns);

  auto caller = ms.CreateContext(Pool::kCompute);
  EXPECT_TRUE(runtime.CheckHeartbeat(*caller).ok());
  EXPECT_FALSE(runtime.panicked());
  // The probe really did wait out the backlog — this is not a fast path.
  EXPECT_GT(caller->now(), ms.params().heartbeat_deadline_ns);
}

TEST(HeartbeatCongestionTest, SaturationExcuseSurvivesTheRetryPath) {
  // Same scenario with a (fault-free) injector attached: the deadline must
  // still judge the winning attempt's RTT against the backlog at ITS send
  // time, not wall time since the first attempt.
  MemorySystem ms(Config(), sim::CostParams::Default(), 32 << 20);
  ms.fabric().set_backend(net::Backend::kQueuedRdma);
  net::FaultInjector inj(/*seed=*/5);
  ms.fabric().set_fault_injector(&inj);
  PushdownRuntime runtime(&ms);
  Saturate(ms, net::Link{0, 0}, /*sends=*/10, /*bytes=*/8 << 20);

  auto caller = ms.CreateContext(Pool::kCompute);
  EXPECT_TRUE(runtime.CheckHeartbeat(*caller).ok());
  EXPECT_FALSE(runtime.panicked());
}

TEST(HeartbeatCongestionTest, IdleProbeSitsWellInsideTheDeadline) {
  MemorySystem ms(Config(), sim::CostParams::Default(), 32 << 20);
  ms.fabric().set_backend(net::Backend::kQueuedRdma);
  PushdownRuntime runtime(&ms);
  auto caller = ms.CreateContext(Pool::kCompute);
  EXPECT_TRUE(runtime.CheckHeartbeat(*caller).ok());
  EXPECT_LT(caller->now(), ms.params().heartbeat_deadline_ns);
}

TEST(HeartbeatCongestionTest, DeadlineStillFencesWhenNoBacklogExplainsIt) {
  // Shrink the deadline below one idle RTT: with zero backlog to excuse the
  // delay, the probe must panic — the congestion allowance never turns the
  // deadline off. A fault-free injector must change nothing: the backlog is
  // read before the probe is queued (its own residency is never excused)
  // and a late probe's two messages are counted, so status, clock and
  // message count equal the injector-free run on every backend.
  sim::CostParams p = sim::CostParams::Default();
  p.heartbeat_deadline_ns = 1;
  struct Probe {
    Status status;
    Nanos now = 0;
    uint64_t net_messages = 0;
  };
  for (const net::Backend backend :
       {net::Backend::kIdeal, net::Backend::kQueuedRdma,
        net::Backend::kSmartNic}) {
    const auto probe = [&](bool attach_injector) {
      net::FaultInjector inj(/*seed=*/5);
      MemorySystem ms(Config(), p, 32 << 20);
      ms.fabric().set_backend(backend);
      if (attach_injector) ms.fabric().set_fault_injector(&inj);
      PushdownRuntime runtime(&ms);
      auto caller = ms.CreateContext(Pool::kCompute);
      Probe out;
      out.status = runtime.CheckHeartbeat(*caller);
      EXPECT_TRUE(runtime.panicked()) << net::BackendToString(backend);
      out.now = caller->now();
      out.net_messages = caller->metrics().net_messages;
      return out;
    };
    const Probe plain = probe(/*attach_injector=*/false);
    const Probe injected = probe(/*attach_injector=*/true);
    EXPECT_TRUE(plain.status.IsUnavailable()) << net::BackendToString(backend);
    EXPECT_EQ(plain.net_messages, 2u) << net::BackendToString(backend);
    EXPECT_EQ(injected.status, plain.status) << net::BackendToString(backend);
    EXPECT_EQ(injected.now, plain.now) << net::BackendToString(backend);
    EXPECT_EQ(injected.net_messages, plain.net_messages)
        << net::BackendToString(backend);
  }
}

}  // namespace
}  // namespace teleport::tp
