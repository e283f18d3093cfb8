// FaultInjector unit tests plus the Fabric failure-window contract: an
// InjectFailureWindowOn takes the node down for good (NextReachableAt
// answers kNeverHeals), while an outage that heals is the injector's.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "net/faults.h"
#include "sim/cost_model.h"

namespace teleport::net {
namespace {

sim::CostParams Params() { return sim::CostParams::Default(); }

TEST(FailureWindowTest, SingleArgumentFormIsPermanent) {
  Fabric fabric(Params());
  fabric.InjectFailureWindowOn(0, 5 * kMicrosecond);
  EXPECT_EQ(fabric.NextReachableAt(0), 0);
  EXPECT_EQ(fabric.NextReachableAt(5 * kMicrosecond), Fabric::kNeverHeals);
  EXPECT_EQ(fabric.NextReachableAt(1000 * kSecond), Fabric::kNeverHeals);
}

TEST(FailureWindowTest, HardDownIgnoresInjectorOutages) {
  Fabric fabric(Params());
  FaultInjector inj(/*seed=*/1);
  inj.AddOutage(100, 200);
  fabric.set_fault_injector(&inj);
  EXPECT_EQ(fabric.NextReachableAt(150), 200);  // transient: link down
  EXPECT_FALSE(fabric.HardDownAt(150));         // ...but not panic-class
  fabric.InjectFailureWindowOn(0, 300);
  EXPECT_FALSE(fabric.HardDownAt(299));
  EXPECT_TRUE(fabric.HardDownAt(350));
}

TEST(FailureWindowTest, OutagesAreWaitedOutUntilTheNodeIsLost) {
  Fabric fabric(Params());
  FaultInjector inj(/*seed=*/1);
  inj.AddOutage(100, 200);
  inj.AddOutage(200, 300);  // touches the first
  fabric.set_fault_injector(&inj);
  EXPECT_EQ(fabric.NextReachableAt(150), 300);
  fabric.InjectFailureWindowOn(0, 250);  // lost during the second outage
  EXPECT_EQ(fabric.NextReachableAt(150), Fabric::kNeverHeals);
}

TEST(FaultInjectorTest, SeedDeterminism) {
  FaultSpec spec;
  spec.drop_p = 0.3;
  spec.dup_p = 0.1;
  spec.delay_p = 0.2;
  spec.delay_ns = 500;
  FaultInjector a(/*seed=*/42), b(/*seed=*/42);
  a.SetSpecAll(spec);
  b.SetSpecAll(spec);
  for (int i = 0; i < 1000; ++i) {
    const FaultDecision da =
        a.OnSend(MessageKind::kPageFaultRequest, i, Link{}, true);
    const FaultDecision db =
        b.OnSend(MessageKind::kPageFaultRequest, i, Link{}, true);
    EXPECT_EQ(da.dropped, db.dropped);
    EXPECT_EQ(da.copies, db.copies);
    EXPECT_EQ(da.extra_delay_ns, db.extra_delay_ns);
  }
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_EQ(a.duplicates(), b.duplicates());
  EXPECT_EQ(a.delays(), b.delays());
}

TEST(FaultInjectorTest, PerKindSpecsAreIndependent) {
  FaultInjector inj(/*seed=*/7);
  FaultSpec drop_all;
  drop_all.drop_p = 1.0;
  inj.SetSpec(MessageKind::kHeartbeat, drop_all);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.OnSend(MessageKind::kHeartbeat, i, Link{}, true).dropped);
    EXPECT_FALSE(
        inj.OnSend(MessageKind::kPageFaultRequest, i, Link{}, true).dropped);
  }
  EXPECT_EQ(inj.drops_of(MessageKind::kHeartbeat), 50u);
  EXPECT_EQ(inj.drops_of(MessageKind::kPageFaultRequest), 0u);
}

TEST(FaultInjectorTest, LinkFlapsFollowTheSchedule) {
  FaultInjector inj(/*seed=*/1);
  // Three 10ns flaps starting at 100, one every 50ns.
  inj.AddLinkFlaps(/*start=*/100, /*duration=*/10, /*period=*/50,
                   /*count=*/3);
  EXPECT_TRUE(inj.LinkUpAt(99));
  EXPECT_FALSE(inj.LinkUpAt(100));
  EXPECT_FALSE(inj.LinkUpAt(109));
  EXPECT_TRUE(inj.LinkUpAt(110));
  EXPECT_FALSE(inj.LinkUpAt(155));
  EXPECT_FALSE(inj.LinkUpAt(205));
  EXPECT_TRUE(inj.LinkUpAt(260));
  EXPECT_EQ(inj.HealsAt(105), 110);
  EXPECT_EQ(inj.HealsAt(99), -1);  // link is up: nothing to heal
}

TEST(FaultInjectorDeathTest, OverlappingOutagesAbort) {
  FaultInjector inj(/*seed=*/1);
  inj.AddOutage(100, 200);
  // Partial overlap, containment, and identical windows are all rejected —
  // merging would have to pick one crash_restart flag silently.
  EXPECT_DEATH(inj.AddOutage(150, 250), "overlaps");
  EXPECT_DEATH(inj.AddOutage(120, 180), "overlaps");
  EXPECT_DEATH(inj.AddOutage(100, 200), "overlaps");
  EXPECT_DEATH(inj.AddOutage(50, 101, /*crash_restart=*/true), "overlaps");
  EXPECT_DEATH(inj.AddOutage(500, 400), "finite");
}

TEST(FaultInjectorTest, TouchingOutageWindowsAreAllowed) {
  FaultInjector inj(/*seed=*/1);
  inj.AddOutage(100, 200);
  inj.AddOutage(200, 300, /*crash_restart=*/true);  // until == next.from
  inj.AddOutage(50, 100);
  EXPECT_FALSE(inj.LinkUpAt(99));
  EXPECT_FALSE(inj.LinkUpAt(150));
  EXPECT_FALSE(inj.LinkUpAt(250));
  EXPECT_TRUE(inj.LinkUpAt(300));
  EXPECT_FALSE(inj.InCrashRestartAt(150));
  EXPECT_TRUE(inj.InCrashRestartAt(200));
  EXPECT_EQ(inj.HealsAt(120), 200);
  EXPECT_EQ(inj.CrashRestartsCompletedBy(299), 0);
  EXPECT_EQ(inj.CrashRestartsCompletedBy(300), 1);
}

// The binary-searched timeline must agree with a brute-force linear scan at
// every instant, for windows inserted in arbitrary order.
TEST(FaultInjectorTest, TimelineQueriesMatchLinearScan) {
  FaultInjector inj(/*seed=*/1);
  struct W {
    Nanos from, until;
    bool crash;
  };
  // Disjoint, deliberately inserted out of from-order, some touching.
  const std::vector<W> windows = {
      {700, 900, true},  {100, 150, false}, {150, 220, true},
      {400, 401, false}, {1000, 1300, true}, {2000, 2001, true},
  };
  for (const W& w : windows) inj.AddOutage(w.from, w.until, w.crash);
  for (Nanos t = 0; t <= 2100; ++t) {
    const W* covering = nullptr;
    int completed = 0;
    for (const W& w : windows) {
      if (t >= w.from && t < w.until) covering = &w;
      if (w.crash && w.until <= t) ++completed;
    }
    ASSERT_EQ(inj.LinkUpAt(t), covering == nullptr) << "t=" << t;
    ASSERT_EQ(inj.HealsAt(t), covering != nullptr ? covering->until : -1)
        << "t=" << t;
    ASSERT_EQ(inj.InCrashRestartAt(t), covering != nullptr && covering->crash)
        << "t=" << t;
    ASSERT_EQ(inj.CrashRestartsCompletedBy(t), completed) << "t=" << t;
  }
}

TEST(FaultInjectorTest, CrashRestartWindowsAreCounted) {
  FaultInjector inj(/*seed=*/1);
  inj.ScheduleCrashRestart(/*at=*/1000, /*down_for=*/500);
  inj.AddOutage(5000, 5100, /*crash_restart=*/false);
  EXPECT_TRUE(inj.InCrashRestartAt(1200));
  EXPECT_FALSE(inj.InCrashRestartAt(5050));  // plain outage, no data loss
  EXPECT_EQ(inj.CrashRestartsCompletedBy(1499), 0);
  EXPECT_EQ(inj.CrashRestartsCompletedBy(1500), 1);
  EXPECT_EQ(inj.CrashRestartsCompletedBy(6000), 1);
}

TEST(FabricFaultTest, ReliableSendIsDelayedNeverLost) {
  Fabric fabric(Params());
  FaultInjector inj(/*seed=*/3);
  FaultSpec spec;
  spec.drop_p = 0.5;
  inj.SetSpecAll(spec);
  fabric.set_fault_injector(&inj);
  Nanos t = 0;
  for (int i = 0; i < 200; ++i) {
    const Nanos d =
        fabric.SendToMemory(Link{}, t, 64, MessageKind::kPageReturn);
    EXPECT_GT(d, t);  // always delivered, possibly after retransmits
    t = d;
  }
  EXPECT_GT(inj.drops(), 0u);
}

TEST(FabricFaultTest, TrySendSurfacesDropsAndOutages) {
  Fabric fabric(Params());
  FaultInjector inj(/*seed=*/3);
  FaultSpec drop_all;
  drop_all.drop_p = 1.0;
  inj.SetSpec(MessageKind::kPushdownRequest, drop_all);
  inj.AddOutage(1000, 2000);
  fabric.set_fault_injector(&inj);
  EXPECT_FALSE(
      fabric.TrySendToMemory(Link{}, 0, 64, MessageKind::kPushdownRequest)
          .delivered);
  // Outage drops any kind, even with a zero drop probability.
  EXPECT_FALSE(fabric.TrySendToMemory(Link{}, 1500, 64, MessageKind::kHeartbeat)
                   .delivered);
  EXPECT_TRUE(fabric.TrySendToMemory(Link{}, 2500, 64, MessageKind::kHeartbeat)
                  .delivered);
  EXPECT_GT(inj.outage_drops(), 0u);
}

TEST(FabricFaultTest, PerKindAccountingSeparatesTraffic) {
  Fabric fabric(Params());
  fabric.SendToMemory(Link{}, 0, 100, MessageKind::kPushdownRequest);
  fabric.SendToCompute(Link{}, 10, 200, MessageKind::kPushdownResponse);
  fabric.SendToMemory(Link{}, 20, 64, MessageKind::kTryCancel);
  fabric.RoundTripFromCompute(Link{}, 30, 64, 64, 0, MessageKind::kHeartbeat,
                              MessageKind::kHeartbeat);
  EXPECT_EQ(fabric.messages_of(MessageKind::kPushdownRequest), 1u);
  EXPECT_EQ(fabric.bytes_of(MessageKind::kPushdownRequest), 100u);
  EXPECT_EQ(fabric.messages_of(MessageKind::kPushdownResponse), 1u);
  EXPECT_EQ(fabric.messages_of(MessageKind::kTryCancel), 1u);
  EXPECT_EQ(fabric.messages_of(MessageKind::kHeartbeat), 2u);
  EXPECT_EQ(fabric.messages_of(MessageKind::kCoherenceRequest), 0u);
  // Per-kind counts tie out against the channel totals.
  uint64_t sum = 0;
  for (int k = 0; k < kNumMessageKinds; ++k) {
    sum += fabric.messages_of(static_cast<MessageKind>(k));
  }
  EXPECT_EQ(sum, fabric.total_messages());
  EXPECT_NE(fabric.KindBreakdownToString().find("Heartbeat=2"),
            std::string::npos);
}

TEST(FabricFaultTest, ZeroProbabilityInjectorMatchesNoInjector) {
  Fabric plain(Params());
  Fabric injected(Params());
  FaultInjector inj(/*seed=*/9);  // all probabilities default to zero
  injected.set_fault_injector(&inj);
  Nanos tp = 0, ti = 0;
  for (int i = 0; i < 100; ++i) {
    tp = plain.SendToMemory(Link{}, tp, 64 + i, MessageKind::kPageReturn);
    ti = injected.SendToMemory(Link{}, ti, 64 + i, MessageKind::kPageReturn);
    EXPECT_EQ(tp, ti);
  }
  EXPECT_EQ(plain.total_messages(), injected.total_messages());
  EXPECT_EQ(plain.total_bytes(), injected.total_bytes());
}

// PR9 satellite regression: fault streams are per link per direction. The
// seed drew every link's faults from ONE global stream in send order, so
// adding traffic on link A reshuffled which sends on link B got faulted —
// a chaos scenario's fault pattern changed when an unrelated tenant's
// traffic moved. Now link B's fault sequence is a pure function of link B's
// own send sequence.
TEST(FaultInjectorTest, LinkFaultStreamsAreIsolated) {
  FaultSpec spec;
  spec.drop_p = 0.35;
  spec.dup_p = 0.15;
  spec.delay_p = 0.25;
  spec.delay_ns = 700;
  const Link kA{0, 0};
  const Link kB{1, 0};

  // Run 1: link B alone.
  FaultInjector solo(/*seed=*/77);
  solo.SetSpecAll(spec);
  std::vector<FaultDecision> b_solo;
  for (int i = 0; i < 300; ++i) {
    b_solo.push_back(
        solo.OnSend(MessageKind::kPageReturn, i, kB, /*to_memory=*/true));
  }

  // Run 2: link B's sends interleaved with heavy unrelated traffic on link
  // A (both directions) and on B's own reverse direction.
  FaultInjector busy(/*seed=*/77);
  busy.SetSpecAll(spec);
  for (int i = 0; i < 300; ++i) {
    busy.OnSend(MessageKind::kPageFaultRequest, i, kA, true);
    const FaultDecision d =
        busy.OnSend(MessageKind::kPageReturn, i, kB, /*to_memory=*/true);
    busy.OnSend(MessageKind::kPageFaultReply, i, kA, false);
    busy.OnSend(MessageKind::kCoherenceReply, i, kB, /*to_memory=*/false);
    const FaultDecision& want = b_solo[static_cast<size_t>(i)];
    ASSERT_EQ(d.dropped, want.dropped) << "send " << i;
    ASSERT_EQ(d.copies, want.copies) << "send " << i;
    ASSERT_EQ(d.extra_delay_ns, want.extra_delay_ns) << "send " << i;
  }
}

TEST(FaultInjectorTest, ResetReplaysEveryLinkStream) {
  FaultSpec spec;
  spec.drop_p = 0.4;
  spec.dup_p = 0.2;
  FaultInjector inj(/*seed=*/13);
  inj.SetSpecAll(spec);
  const auto run = [&] {
    std::vector<int> pattern;
    for (int i = 0; i < 100; ++i) {
      for (const Link link : {Link{0, 0}, Link{1, 1}, Link{2, 0}}) {
        const FaultDecision d =
            inj.OnSend(MessageKind::kPageReturn, i, link, true);
        pattern.push_back(d.dropped ? -1 : d.copies);
      }
    }
    return pattern;
  };
  const std::vector<int> first = run();
  inj.Reset();
  EXPECT_EQ(run(), first);
}

TEST(FabricFaultTest, ResetClearsKindAccountingAndReseedsInjector) {
  Fabric fabric(Params());
  FaultInjector inj(/*seed=*/5);
  FaultSpec spec;
  spec.drop_p = 0.4;
  inj.SetSpecAll(spec);
  fabric.set_fault_injector(&inj);
  Nanos t = 0;
  std::vector<Nanos> first;
  for (int i = 0; i < 50; ++i) {
    t = fabric.SendToMemory(Link{}, t, 64, MessageKind::kPageReturn);
    first.push_back(t);
  }
  fabric.Reset();
  EXPECT_EQ(fabric.messages_of(MessageKind::kPageReturn), 0u);
  EXPECT_EQ(inj.drops(), 0u);
  t = 0;
  for (int i = 0; i < 50; ++i) {
    t = fabric.SendToMemory(Link{}, t, 64, MessageKind::kPageReturn);
    EXPECT_EQ(t, first[static_cast<size_t>(i)]);  // same seed, same run
  }
}

}  // namespace
}  // namespace teleport::net
