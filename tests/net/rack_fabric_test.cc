// PR7 rack-scale regressions for the net layer.
//
// Satellite 1: the reliable-FIFO clamp of net::Channel is a property of ONE
// (src, dst) link's committed-transfer timeline. The single-pool code kept
// one global timeline, so a large transfer to one memory node head-of-line
// blocked an independent send to another node — the per-link tests here
// fail against that behavior.
//
// Satellite 2: net::FaultInjector outage/crash windows are keyed by memory
// node: windows on different nodes are independent timelines (may overlap
// freely), windows on one node stay pairwise disjoint (overlap aborts), and
// every binary-searched timeline query agrees with a brute-force linear
// scan over the same multi-node schedule.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/fabric.h"
#include "net/faults.h"

namespace teleport::net {
namespace {

sim::CostParams TestParams() {
  sim::CostParams p;
  p.net_latency_ns = 1000;
  p.net_bytes_per_ns = 1.0;  // 1 byte/ns for easy arithmetic
  return p;
}

TEST(RackFabricTest, IndependentLinksDoNotHeadOfLineBlock) {
  Fabric fabric(TestParams(), /*compute_nodes=*/1, /*memory_nodes=*/2);
  // A large committed transfer to shard 0...
  const Nanos big = fabric.SendToMemory(Link{0, 0}, 0, 1'000'000,
                                        MessageKind::kPageReturn);
  // ...must not delay a small send to shard 1 issued just after: the two
  // links have separate committed-transfer timelines.
  const Nanos small = fabric.SendToMemory(Link{0, 1}, 10, 8,
                                          MessageKind::kPageReturn);
  EXPECT_LT(small, big)
      << "a transfer to shard 1 was clamped behind shard 0's timeline";
  // The same-link clamp is intact: FIFO per link.
  const Nanos big0 = fabric.SendToMemory(Link{0, 0}, big + 1, 1'000'000,
                                         MessageKind::kPageReturn);
  const Nanos after0 = fabric.SendToMemory(Link{0, 0}, big + 20, 8,
                                           MessageKind::kPageReturn);
  EXPECT_GE(after0, big0);
}

TEST(RackFabricTest, PerComputeNodeLinksAreIndependentToo) {
  Fabric fabric(TestParams(), /*compute_nodes=*/2, /*memory_nodes=*/1);
  const Nanos big = fabric.SendToMemory(Link{0, 0}, 0, 1'000'000,
                                        MessageKind::kPageReturn);
  const Nanos small = fabric.SendToMemory(Link{1, 0}, 10, 8,
                                          MessageKind::kPageReturn);
  EXPECT_LT(small, big);
}

TEST(RackFabricTest, PerNodeReachabilityIsIndependent) {
  Fabric fabric(TestParams(), 1, 2);
  FaultInjector inj(/*seed=*/1);
  inj.AddOutage(100, 200, /*crash_restart=*/false, /*node=*/1);
  fabric.set_fault_injector(&inj);
  EXPECT_EQ(fabric.NextReachableAt(150, 0), 150);
  EXPECT_EQ(fabric.NextReachableAt(150, 1), 200);
  fabric.InjectFailureWindowOn(0, 0);  // node 0 lost for good
  EXPECT_EQ(fabric.NextReachableAt(0, 0), Fabric::kNeverHeals);
  EXPECT_EQ(fabric.NextReachableAt(0, 1), 0);
}

TEST(RackFaultsTest, WindowsOnDifferentNodesMayOverlap) {
  FaultInjector inj(/*seed=*/1);
  inj.AddOutage(100, 300, /*crash_restart=*/false, /*node=*/0);
  inj.AddOutage(150, 250, /*crash_restart=*/true, /*node=*/1);  // overlaps 0
  EXPECT_FALSE(inj.LinkUpAt(200, 0));
  EXPECT_FALSE(inj.LinkUpAt(200, 1));
  EXPECT_TRUE(inj.LinkUpAt(120, 1));
  EXPECT_EQ(inj.HealsAt(200, 0), 300);
  EXPECT_EQ(inj.HealsAt(200, 1), 250);
  EXPECT_TRUE(inj.InCrashRestartAt(200, 1));
  EXPECT_FALSE(inj.InCrashRestartAt(200, 0));
  EXPECT_EQ(inj.CrashRestartsCompletedBy(260, 1), 1);
  EXPECT_EQ(inj.CrashRestartsCompletedBy(260, 0), 0);
  EXPECT_EQ(inj.total_windows(), 2u);
}

TEST(RackFaultsTest, SameNodeOverlapStillAborts) {
  FaultInjector inj(/*seed=*/1);
  inj.AddOutage(100, 200, false, /*node=*/3);
  EXPECT_DEATH(inj.AddOutage(150, 250, false, /*node=*/3), "overlaps");
  // Touching windows are fine, and other nodes are unaffected.
  inj.AddOutage(200, 220, false, /*node=*/3);
  inj.AddOutage(150, 250, false, /*node=*/4);
}

TEST(RackFaultsTest, BinarySearchedTimelineMatchesLinearScan) {
  // A dense multi-node schedule inserted in shuffled order; every query the
  // injector answers by binary search is cross-checked against a linear
  // scan of the node's sorted window list.
  constexpr int kNodes = 4;
  FaultInjector inj(/*seed=*/9);
  Rng rng(0xfab5);
  struct Win {
    Nanos from, until;
    bool crash;
    int node;
  };
  std::vector<Win> wins;
  for (int node = 0; node < kNodes; ++node) {
    Nanos t = 50 + static_cast<Nanos>(rng.Uniform(100));
    for (int i = 0; i < 40; ++i) {
      const Nanos from = t;
      const Nanos until = from + 10 + static_cast<Nanos>(rng.Uniform(90));
      wins.push_back(Win{from, until, rng.Bernoulli(0.4), node});
      t = until + static_cast<Nanos>(rng.Uniform(120));
    }
  }
  // Shuffle insertion order deterministically.
  for (size_t i = wins.size(); i > 1; --i) {
    std::swap(wins[i - 1], wins[rng.Uniform(i)]);
  }
  for (const Win& w : wins) inj.AddOutage(w.from, w.until, w.crash, w.node);
  EXPECT_EQ(inj.total_windows(), wins.size());

  for (int node = 0; node < kNodes; ++node) {
    const std::vector<OutageWindow>& sched = inj.outages(node);
    ASSERT_EQ(sched.size(), 40u);
    // Sorted and disjoint.
    for (size_t i = 1; i < sched.size(); ++i) {
      EXPECT_LE(sched[i - 1].until, sched[i].from);
    }
    for (Nanos t = 0; t < 6000; t += 7) {
      bool up = true;
      Nanos heals = -1;
      bool crash_now = false;
      int completed = 0;
      for (const OutageWindow& w : sched) {
        if (w.from <= t && t < w.until) {
          up = false;
          heals = w.until;
          crash_now = w.crash_restart;
        }
        if (w.crash_restart && w.until <= t) ++completed;
      }
      EXPECT_EQ(inj.LinkUpAt(t, node), up) << "t=" << t << " node=" << node;
      EXPECT_EQ(inj.HealsAt(t, node), heals) << "t=" << t << " node=" << node;
      EXPECT_EQ(inj.InCrashRestartAt(t, node), crash_now)
          << "t=" << t << " node=" << node;
      EXPECT_EQ(inj.CrashRestartsCompletedBy(t, node), completed)
          << "t=" << t << " node=" << node;
    }
    // A node with no schedule is always up.
    EXPECT_TRUE(inj.LinkUpAt(1000, kNodes + 1));
    EXPECT_EQ(inj.HealsAt(1000, kNodes + 1), -1);
  }
}

}  // namespace
}  // namespace teleport::net
