#include "net/fabric.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/clock.h"
#include "sim/interleaver.h"

namespace teleport::net {
namespace {

sim::CostParams TestParams() {
  sim::CostParams p;
  p.net_latency_ns = 1000;
  p.net_bytes_per_ns = 1.0;  // 1 byte/ns for easy arithmetic
  return p;
}

TEST(ChannelTest, DeliveryIsLatencyPlusSerialization) {
  Channel ch;
  const auto p = TestParams();
  EXPECT_EQ(ch.Send(0, 500, p), 1500);
  EXPECT_EQ(ch.messages_sent(), 1u);
  EXPECT_EQ(ch.bytes_sent(), 500u);
}

TEST(ChannelTest, FifoDeliveryNeverReorders) {
  // A small message sent after a big one must not arrive earlier (§4.1
  // relies on FIFO reliable delivery).
  Channel ch;
  const auto p = TestParams();
  const Nanos big = ch.Send(0, 100000, p);    // arrives at 101000
  const Nanos small = ch.Send(10, 8, p);      // would arrive at 1018
  EXPECT_GE(small, big);
}

TEST(ChannelTest, FifoPropertyRandomized) {
  Channel ch;
  const auto p = TestParams();
  Rng rng(42);
  Nanos now = 0;
  Nanos prev_delivery = 0;
  for (int i = 0; i < 1000; ++i) {
    now += static_cast<Nanos>(rng.Uniform(500));
    const Nanos d = ch.Send(now, rng.Uniform(10000), p);
    EXPECT_GE(d, prev_delivery);
    EXPECT_GE(d, now + p.net_latency_ns);
    prev_delivery = d;
  }
}

// Regression for the out-of-order-time clamp bug: a cooperatively
// scheduled task whose clock lags the channel's newest committed send used
// to escape the FIFO clamp entirely, so a transfer overlapping one already
// in flight could be delivered first.
TEST(ChannelTest, LaggingSendOverlappingInFlightTransferQueuesBehindIt) {
  Channel ch;
  const auto p = TestParams();
  // Task A (clock ahead) commits a transfer occupying [100, 101100].
  const Nanos big = ch.Send(100, 100000, p);
  EXPECT_EQ(big, 101100);
  // Task B runs next in host order with its clock slightly behind. Its
  // 50 KB transfer would still be on the wire at t=100, overlapping the
  // committed one; the serial wire queues it behind (the seed delivered it
  // at 51095, overtaking the message already in flight).
  const Nanos overlap = ch.Send(95, 50000, p);
  EXPECT_GE(overlap, big);
}

TEST(ChannelTest, LaggingSendOnProvablyIdleWireKeepsItsOwnTimeline) {
  Channel ch;
  const auto p = TestParams();
  // One transfer committed late on the timeline: occupies [100000, 101008].
  EXPECT_EQ(ch.Send(100000, 8, p), 101008);
  // A lagging task's message that completes before that transfer even
  // began used the wire while it was provably idle; clamping it to the
  // committed delivery would serialize logically-concurrent flows (and,
  // e.g., delay a try_cancel behind the 50 ms call it is cancelling).
  EXPECT_EQ(ch.Send(10, 8, p), 1018);
}

namespace {

/// Interleaver task that fires sends on a shared channel at its own
/// virtual pace, recording (send, raw transfer, delivery) triples.
class SenderTask : public sim::Task {
 public:
  struct Sent {
    Nanos at;
    Nanos raw_delivery;  ///< at + NetTransfer, before FIFO clamping
    Nanos delivery;
  };

  SenderTask(Channel* ch, const sim::CostParams* params, Nanos quantum,
             uint64_t bytes, int sends, std::vector<Sent>* log)
      : ch_(ch),
        params_(params),
        quantum_(quantum),
        bytes_(bytes),
        sends_(sends),
        log_(log) {}

  Nanos clock() const override { return clock_.now(); }
  bool done() const override { return sends_ == 0; }
  void Step() override {
    clock_.Advance(quantum_);
    const Nanos raw = clock_.now() + params_->NetTransfer(bytes_);
    const Nanos d = ch_->Send(clock_.now(), bytes_, *params_);
    log_->push_back({clock_.now(), raw, d});
    --sends_;
  }

 private:
  Channel* ch_;
  const sim::CostParams* params_;
  Nanos quantum_;
  uint64_t bytes_;
  int sends_;
  std::vector<Sent>* log_;
  sim::VirtualClock clock_;
};

}  // namespace

// Interleaver-driven regression (the ISSUE's reproducer shape): two tasks
// with skewed clocks share one channel under RandomSchedule, so sends
// reach the channel out of virtual-time order. The per-channel FIFO
// contract: a send whose transfer would still be on the wire at the
// newest committed send's start never beats a committed delivery.
TEST(ChannelTest, RandomScheduleInterleavingPreservesFifoContract) {
  const auto p = TestParams();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Channel ch;
    std::vector<SenderTask::Sent> log;
    // A fast-clocked task with big messages and a slow-clocked task with
    // small ones maximize send/virtual-time inversions.
    SenderTask big(&ch, &p, /*quantum=*/50'000, /*bytes=*/100'000,
                   /*sends=*/20, &log);
    SenderTask small(&ch, &p, /*quantum=*/7'000, /*bytes=*/500, /*sends=*/20,
                     &log);
    sim::Interleaver il;
    il.Add(&big);
    il.Add(&small);
    sim::RandomSchedule schedule(seed);
    il.set_schedule(&schedule);
    il.Run();

    Nanos newest_send = 0;
    Nanos newest_delivery = 0;
    for (const SenderTask::Sent& s : log) {
      if (s.raw_delivery >= newest_send) {
        // Overlaps (or follows) committed wire usage: must queue.
        EXPECT_GE(s.delivery, newest_delivery)
            << "seed " << seed << ": send at " << s.at
            << " overtook an in-flight transfer";
      } else {
        // Provably idle window: keeps its own timeline, unclamped.
        EXPECT_EQ(s.delivery, s.raw_delivery) << "seed " << seed;
      }
      newest_send = std::max(newest_send, s.at);
      newest_delivery = std::max(newest_delivery, s.delivery);
    }
  }
}

TEST(ChannelTest, ResetClearsState) {
  Channel ch;
  const auto p = TestParams();
  ch.Send(0, 100, p);
  ch.Reset();
  EXPECT_EQ(ch.messages_sent(), 0u);
  EXPECT_EQ(ch.last_delivery(), 0);
}

TEST(FabricTest, RoundTripAddsHandlerTime) {
  Fabric f(TestParams());
  // req: 0 -> 1064 (64B); handler 936 -> reply sent at 2000; 64B -> 3064.
  const Nanos done = f.RoundTripFromCompute(Link{}, 0, 64, 64, 936);
  EXPECT_EQ(done, 3064);
  EXPECT_EQ(f.total_messages(), 2u);
  EXPECT_EQ(f.total_bytes(), 128u);
}

TEST(FabricTest, RoundTripFromMemoryUsesOppositeChannels) {
  Fabric f(TestParams());
  f.RoundTripFromMemory(Link{}, 0, 64, 64, 0);
  EXPECT_EQ(f.memory_to_compute().messages_sent(), 1u);
  EXPECT_EQ(f.compute_to_memory().messages_sent(), 1u);
}

TEST(FabricTest, DirectionsAreIndependentChannels) {
  Fabric f(TestParams());
  f.SendToMemory(Link{}, 0, 1000000);  // saturate one direction
  // The reverse direction is unaffected by the forward queue.
  EXPECT_EQ(f.SendToCompute(Link{}, 0, 8), 1008);
}

TEST(FabricTest, MessageKindNamesAreStable) {
  EXPECT_EQ(MessageKindToString(MessageKind::kPushdownRequest),
            "PushdownRequest");
  EXPECT_EQ(MessageKindToString(MessageKind::kCoherenceRequest),
            "CoherenceRequest");
  EXPECT_EQ(MessageKindToString(MessageKind::kHeartbeat), "Heartbeat");
}

TEST(FabricTest, PaperLatencyBandwidth) {
  // With the paper's constants, a 4 KiB page fetch round trip costs a few
  // microseconds: 1.2us + ~9ns (64B) + handler + 1.2us + ~585ns (4KiB).
  Fabric f(sim::CostParams::Default());
  const Nanos done =
      f.RoundTripFromCompute(Link{}, 0, 64, 4096 + 64, /*handler_ns=*/900);
  EXPECT_GT(done, 3'000);
  EXPECT_LT(done, 5'000);
}

// --- PR9: contended backends ----------------------------------------------

TEST(FabricBackendTest, NamesAreStable) {
  EXPECT_EQ(BackendToString(Backend::kIdeal), "ideal");
  EXPECT_EQ(BackendToString(Backend::kQueuedRdma), "queued_rdma");
  EXPECT_EQ(BackendToString(Backend::kSmartNic), "smartnic");
}

TEST(FabricBackendTest, UnknownEnvBackendAborts) {
  for (const char* bad : {"queued-rdma", "QUEUED_RDMA", "rdma", "ideal "}) {
    EXPECT_DEATH(
        {
          ::setenv("TELEPORT_FABRIC_BACKEND", bad, 1);
          BackendFromEnv();
        },
        "TELEPORT_FABRIC_BACKEND.*expected ideal, queued_rdma or smartnic")
        << bad;
  }
}

TEST(FabricBackendTest, IdealLeavesQueueMachineryUntouched) {
  // The default backend must not move any PR9 counter: pre-PR9 goldens are
  // locked against this.
  Fabric f(TestParams());
  ASSERT_EQ(f.backend(), Backend::kIdeal);
  EXPECT_EQ(f.SendToMemory(Link{}, 0, 500), 1500);  // the PR1 number, unchanged
  f.RoundTripFromCompute(Link{}, 0, 64, 64, 936);
  EXPECT_EQ(f.QueueBacklogNs(Link{}, 0), 0);
  EXPECT_EQ(f.doorbells(), 0u);
  EXPECT_EQ(f.coalesced_doorbells(), 0u);
  EXPECT_EQ(f.sg_sends(), 0u);
  EXPECT_EQ(f.smartnic_offloads(), 0u);
  EXPECT_EQ(f.queued_sends_of(MessageKind::kPageReturn), 0u);
  EXPECT_EQ(f.QueueBreakdownToString(), "fabricq{}");
}

TEST(FabricBackendTest, QueuedSingleFlowIsIdealPlusVerbOverhead) {
  // An uncontended queued send pays exactly the verb submission on top of
  // the ideal wire: submit = 0 + 250, start = 250 (every queue idle),
  // delivery = 250 + max(500/1.0, 500/12.5, 500/10.0) + 1000.
  Fabric f(TestParams());
  f.set_backend(Backend::kQueuedRdma);
  EXPECT_EQ(f.SendToMemory(Link{}, 0, 500), 1750);
  EXPECT_EQ(f.doorbells(), 1u);
  EXPECT_EQ(f.coalesced_doorbells(), 0u);
  EXPECT_EQ(f.queued_sends_of(MessageKind::kPageReturn), 0u);
}

TEST(FabricBackendTest, DoorbellBatchingCoalescesTheSecondVerb) {
  Fabric f(TestParams());
  f.set_backend(Backend::kQueuedRdma);
  f.SendToMemory(Link{}, 0, 500);
  // Second send inside the 400 ns batch window: no second verb overhead,
  // but it queues behind the first transfer's committed link residency
  // (busy until 750) — wait = 750, delivery = 750 + 500 + 1000.
  EXPECT_EQ(f.SendToMemory(Link{}, 100, 500), 2250);
  EXPECT_EQ(f.doorbells(), 1u);
  EXPECT_EQ(f.coalesced_doorbells(), 1u);
  EXPECT_EQ(f.queued_sends_of(MessageKind::kPageReturn), 1u);
  EXPECT_EQ(f.queue_wait_of(MessageKind::kPageReturn), 650);
  EXPECT_GE(f.peak_queue_depth_of(MessageKind::kPageReturn), 2u);
}

TEST(FabricBackendTest, SharedControllerInflatesNeighborLatency) {
  // Two compute nodes, one shard: node 0's burst occupies the shard
  // controller (100 kB at 10 B/ns = 10 us), so node 1's small send on its
  // own otherwise-idle link starts only when the controller frees up. Under
  // kIdeal the links are fully independent and the neighbor is unaffected.
  const auto p = TestParams();
  Fabric contended(p, /*compute_nodes=*/2, /*memory_nodes=*/1);
  contended.set_backend(Backend::kQueuedRdma);
  contended.SendToMemory(Link{0, 0}, 0, 100'000);
  const Nanos with_burst = contended.SendToMemory(Link{1, 0}, 0, 500);

  Fabric quiet(p, 2, 1);
  quiet.set_backend(Backend::kQueuedRdma);
  const Nanos without_burst = quiet.SendToMemory(Link{1, 0}, 0, 500);

  EXPECT_EQ(without_burst, 1750);
  EXPECT_EQ(with_burst, 11'750);  // controller busy until 250 + 10'000

  Fabric ideal(p, 2, 1);
  ideal.SendToMemory(Link{0, 0}, 0, 100'000);
  EXPECT_EQ(ideal.SendToMemory(Link{1, 0}, 0, 500), 1500);  // unaffected
}

TEST(FabricBackendTest, SharedNicCouplesOneNodesLinks) {
  // One compute node, two shards: the node's NIC (12.5 B/ns) serves both
  // links, so a burst to shard 0 delays a send to shard 1 even though the
  // per-link wires are disjoint.
  const auto p = TestParams();
  Fabric f(p, /*compute_nodes=*/1, /*memory_nodes=*/2);
  f.set_backend(Backend::kQueuedRdma);
  f.SendToMemory(Link{0, 0}, 0, 100'000);  // NIC busy until 250 + 8'000
  const Nanos d = f.SendToMemory(Link{0, 1}, 0, 500);
  EXPECT_EQ(d, 8250 + 500 + 1000);
}

TEST(FabricBackendTest, ScatterGatherMatchesSingleSendUnderIdeal) {
  const std::vector<uint64_t> segments{64, 4096, 4096};
  Fabric f(TestParams());
  const Nanos gathered = f.SendGatherToMemory(Link{}, 0, segments,
                                              MessageKind::kSyncmem);
  Fabric g(TestParams());
  const Nanos single =
      g.SendToMemory(Link{}, 0, 64 + 4096 + 4096, MessageKind::kSyncmem);
  EXPECT_EQ(gathered, single);
  EXPECT_EQ(f.sg_sends(), 0u);  // kIdeal: no SG accounting, goldens locked
}

TEST(FabricBackendTest, ScatterGatherRidesOneDoorbellUnderQueued) {
  Fabric f(TestParams());
  f.set_backend(Backend::kQueuedRdma);
  const std::vector<uint64_t> segments{64, 4096, 4096};
  f.SendGatherToMemory(Link{}, 0, segments, MessageKind::kSyncmem);
  EXPECT_EQ(f.sg_sends(), 1u);
  EXPECT_EQ(f.sg_segments(), 3u);
  EXPECT_EQ(f.doorbells(), 1u);  // one verb for the whole gather list
}

TEST(FabricBackendTest, SmartNicOffloadsCoherenceAndSmallProbesOnly) {
  Fabric f(TestParams());
  // Predicate is backend-gated: everything is host-path under kQueuedRdma.
  f.set_backend(Backend::kQueuedRdma);
  EXPECT_FALSE(f.SmartNicOffloaded(MessageKind::kCoherenceRequest, 64));
  f.set_backend(Backend::kSmartNic);
  EXPECT_TRUE(f.SmartNicOffloaded(MessageKind::kCoherenceRequest, 64));
  EXPECT_TRUE(f.SmartNicOffloaded(MessageKind::kCoherenceReply, 8192));
  EXPECT_TRUE(f.SmartNicOffloaded(MessageKind::kPushdownRequest, 256));
  EXPECT_FALSE(f.SmartNicOffloaded(MessageKind::kPushdownRequest, 257));
  EXPECT_FALSE(f.SmartNicOffloaded(MessageKind::kPageFaultRequest, 64));
}

TEST(FabricBackendTest, SmartNicCoherenceSkipsTheBusyController) {
  // Saturate the shard controller with pushdown traffic, then issue a
  // coherence round trip. The SmartNIC backend answers it NIC-side: it
  // neither waits for the controller nor pays the host handler.
  const auto p = TestParams();
  const auto coherence_rtt = [&](Backend b) {
    Fabric f(p);
    f.set_backend(b);
    f.SendToMemory(Link{}, 0, 200'000, MessageKind::kPushdownRequest);
    return f.RoundTripFromCompute(Link{}, 0, 64, 64, /*handler_ns=*/900,
                                  MessageKind::kCoherenceRequest,
                                  MessageKind::kCoherenceReply);
  };
  const Nanos host = coherence_rtt(Backend::kQueuedRdma);
  const Nanos nic = coherence_rtt(Backend::kSmartNic);
  EXPECT_LT(nic, host);

  Fabric f(p);
  f.set_backend(Backend::kSmartNic);
  f.RoundTripFromCompute(Link{}, 0, 64, 64, 900,
                         MessageKind::kCoherenceRequest,
                         MessageKind::kCoherenceReply);
  EXPECT_EQ(f.smartnic_offloads(), 2u);  // request and reply both on-NIC
}

TEST(FabricBackendTest, QueueBacklogDecaysWithVirtualTime) {
  Fabric f(TestParams());
  f.set_backend(Backend::kQueuedRdma);
  f.SendToMemory(Link{}, 0, 100'000);  // link busy until 100'250
  const Nanos at_zero = f.QueueBacklogNs(Link{}, 0);
  const Nanos later = f.QueueBacklogNs(Link{}, 50'000);
  EXPECT_GT(at_zero, 0);
  EXPECT_LT(later, at_zero);
  EXPECT_EQ(f.QueueBacklogNs(Link{}, 200'000), 0);
}

TEST(FabricBackendTest, ResetClearsQueueState) {
  Fabric f(TestParams());
  f.set_backend(Backend::kQueuedRdma);
  f.SendToMemory(Link{}, 0, 100'000);
  f.SendToMemory(Link{}, 0, 500);
  ASSERT_GT(f.doorbells() + f.coalesced_doorbells(), 0u);
  f.Reset();
  EXPECT_EQ(f.QueueBacklogNs(Link{}, 0), 0);
  EXPECT_EQ(f.doorbells(), 0u);
  EXPECT_EQ(f.coalesced_doorbells(), 0u);
  EXPECT_EQ(f.QueueBreakdownToString(), "fabricq{}");
  EXPECT_EQ(f.SendToMemory(Link{}, 0, 500), 1750);  // fresh-fabric number again
}

namespace {

/// Interleaver task driving one direction of a Fabric link at its own
/// virtual pace (the satellite-3 reproducer shape, lifted from the raw
/// Channel to the backend-dispatched fabric path).
class FabricSenderTask : public sim::Task {
 public:
  FabricSenderTask(Fabric* fabric, Link link, Nanos quantum, uint64_t bytes,
                   int sends, std::vector<Nanos>* deliveries)
      : fabric_(fabric),
        link_(link),
        quantum_(quantum),
        bytes_(bytes),
        sends_(sends),
        deliveries_(deliveries) {}

  Nanos clock() const override { return clock_.now(); }
  bool done() const override { return sends_ == 0; }
  void Step() override {
    clock_.Advance(quantum_);
    deliveries_->push_back(
        fabric_->SendToMemory(link_, clock_.now(), bytes_));
    --sends_;
  }

 private:
  Fabric* fabric_;
  Link link_;
  Nanos quantum_;
  uint64_t bytes_;
  int sends_;
  std::vector<Nanos>* deliveries_;
  sim::VirtualClock clock_;
};

std::vector<Nanos> RunInterleavedSends(Backend backend, uint64_t seed) {
  const auto p = TestParams();
  Fabric f(p);
  f.set_backend(backend);
  std::vector<Nanos> deliveries;
  FabricSenderTask big(&f, Link{}, /*quantum=*/50'000, /*bytes=*/100'000,
                       /*sends=*/20, &deliveries);
  FabricSenderTask small(&f, Link{}, /*quantum=*/7'000, /*bytes=*/500,
                         /*sends=*/20, &deliveries);
  sim::Interleaver il;
  il.Add(&big);
  il.Add(&small);
  sim::RandomSchedule schedule(seed);
  il.set_schedule(&schedule);
  il.Run();
  return deliveries;
}

}  // namespace

// Satellite-3 regression, parameterized over both contended backends: the
// queued model serializes a lagging send behind committed queue residency
// (start >= busy_until of every shared resource), so deliveries on one
// channel are monotone in host-call order with no idle-wire exemption —
// CommitAt is the final clamp for the SmartNIC-mixing edge.
TEST(FabricBackendTest, InterleavedLaggingSendsStayFifoUnderBothBackends) {
  for (const Backend backend : {Backend::kQueuedRdma, Backend::kSmartNic}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      const std::vector<Nanos> deliveries =
          RunInterleavedSends(backend, seed);
      ASSERT_EQ(deliveries.size(), 40u);
      for (size_t i = 1; i < deliveries.size(); ++i) {
        EXPECT_GE(deliveries[i], deliveries[i - 1])
            << BackendToString(backend) << " seed " << seed << " send " << i
            << " overtook a committed delivery";
      }
    }
  }
}

}  // namespace
}  // namespace teleport::net
