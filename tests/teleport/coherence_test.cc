#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ddc/memory_system.h"
#include "teleport/model_checker.h"

namespace teleport::ddc {
namespace {

constexpr uint64_t kPage = 4096;

class CoherenceTest : public ::testing::Test {
 protected:
  CoherenceTest()
      : ms_(Config(), sim::CostParams::Default(), 16 << 20),
        base_(ms_.space().Alloc(64 * kPage, "data")),
        checker_(&ms_, tp::ModelChecker::OnViolation::kRecord) {
    ms_.SeedData();
  }

  void TearDown() override { EXPECT_EQ(checker_.Finish(), 0u); }

  static DdcConfig Config() {
    DdcConfig c;
    c.platform = Platform::kBaseDdc;
    c.compute_cache_bytes = 16 * kPage;
    c.memory_pool_bytes = 1024 * kPage;
    return c;
  }

  VAddr PageAddr(int p) const { return base_ + static_cast<VAddr>(p) * kPage; }

  MemorySystem ms_;
  VAddr base_;
  tp::ModelChecker checker_;
};

TEST_F(CoherenceTest, Fig8TempTableConstruction) {
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Store<int64_t>(PageAddr(0), 1);  // compute W
  cc->Load<int64_t>(PageAddr(1));      // compute R
  //(page 2 stays uncached)
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  EXPECT_EQ(ms_.temp_perm(ms_.space().PageOf(PageAddr(0))), Perm::kNone);
  EXPECT_EQ(ms_.temp_perm(ms_.space().PageOf(PageAddr(1))), Perm::kRead);
  EXPECT_EQ(ms_.temp_perm(ms_.space().PageOf(PageAddr(2))), Perm::kWrite);
  ms_.EndPushdownSession();
}

TEST_F(CoherenceTest, MemoryWriteFaultPullsDirtyPageBack) {
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Store<int64_t>(PageAddr(0), 77);  // dirty in compute
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  auto mc = ms_.CreateContext(Pool::kMemory);
  mc->Store<int64_t>(PageAddr(0), 78);
  // The compute copy was dirty: a PageReturn flushed it and the compute
  // entry was invalidated (write request -> evict, Fig 9 line 22).
  EXPECT_EQ(mc->metrics().coherence_page_returns, 1u);
  EXPECT_EQ(mc->metrics().coherence_invalidations, 1u);
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(PageAddr(0))), Perm::kNone);
  EXPECT_EQ(ms_.temp_perm(ms_.space().PageOf(PageAddr(0))), Perm::kWrite);
  ms_.CheckSwmrInvariant();
  ms_.EndPushdownSession();
  EXPECT_EQ(mc->Load<int64_t>(PageAddr(0)), 78);
}

TEST_F(CoherenceTest, MemoryReadFaultDowngradesComputeWriter) {
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Store<int64_t>(PageAddr(3), 5);
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  auto mc = ms_.CreateContext(Pool::kMemory);
  EXPECT_EQ(mc->Load<int64_t>(PageAddr(3)), 5);
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(PageAddr(3))), Perm::kRead);
  EXPECT_EQ(ms_.temp_perm(ms_.space().PageOf(PageAddr(3))), Perm::kRead);
  EXPECT_EQ(mc->metrics().coherence_downgrades, 1u);
  EXPECT_EQ(mc->metrics().coherence_page_returns, 1u);  // dirty data moved
  ms_.CheckSwmrInvariant();
  ms_.EndPushdownSession();
}

TEST_F(CoherenceTest, ComputeWriteFaultInvalidatesTempWriter) {
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  auto mc = ms_.CreateContext(Pool::kMemory);
  mc->Store<int64_t>(PageAddr(4), 9);  // temp W (page was uncached)
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Store<int64_t>(PageAddr(4), 10);
  EXPECT_EQ(ms_.temp_perm(ms_.space().PageOf(PageAddr(4))), Perm::kNone);
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(PageAddr(4))), Perm::kWrite);
  EXPECT_GE(cc->metrics().coherence_messages, 2u);
  ms_.CheckSwmrInvariant();
  ms_.EndPushdownSession();
  EXPECT_EQ(cc->Load<int64_t>(PageAddr(4)), 10);
}

TEST_F(CoherenceTest, ComputeReadFaultDowngradesTempWriter) {
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  auto mc = ms_.CreateContext(Pool::kMemory);
  mc->Store<int64_t>(PageAddr(5), 13);
  auto cc = ms_.CreateContext(Pool::kCompute);
  EXPECT_EQ(cc->Load<int64_t>(PageAddr(5)), 13);
  EXPECT_EQ(ms_.temp_perm(ms_.space().PageOf(PageAddr(5))), Perm::kRead);
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(PageAddr(5))), Perm::kRead);
  ms_.CheckSwmrInvariant();
  ms_.EndPushdownSession();
}

TEST_F(CoherenceTest, ReadSharingCostsNoCoherenceTraffic) {
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Load<int64_t>(PageAddr(6));  // compute R
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  auto mc = ms_.CreateContext(Pool::kMemory);
  mc->Load<int64_t>(PageAddr(6));  // temp starts R per Fig 8
  EXPECT_EQ(mc->metrics().coherence_messages, 0u);
  ms_.EndPushdownSession();
}

TEST_F(CoherenceTest, PsoDowngradesInsteadOfInvalidating) {
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Load<int64_t>(PageAddr(7));  // compute R (clean)
  ms_.BeginPushdownSession(CoherenceMode::kPso);
  auto mc = ms_.CreateContext(Pool::kMemory);
  mc->Store<int64_t>(PageAddr(7), 1);
  // Under PSO the compute copy survives read-only (write propagation
  // relaxed, §4.2).
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(PageAddr(7))), Perm::kRead);
  EXPECT_EQ(mc->metrics().coherence_downgrades, 1u);
  EXPECT_EQ(mc->metrics().coherence_invalidations, 0u);
  ms_.EndPushdownSession();
}

TEST_F(CoherenceTest, WeakOrderingSilencesContendedWrites) {
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Load<int64_t>(PageAddr(8));  // both sides will hold R
  ms_.BeginPushdownSession(CoherenceMode::kWeakOrdering);
  auto mc = ms_.CreateContext(Pool::kMemory);
  mc->Store<int64_t>(PageAddr(8), 2);  // temp upgrade: silent
  cc->Store<int64_t>(PageAddr(8), 3);  // compute upgrade: silent
  EXPECT_EQ(mc->metrics().coherence_messages, 0u);
  EXPECT_EQ(cc->metrics().coherence_messages, 0u);
  ms_.EndPushdownSession();
}

TEST_F(CoherenceTest, NoneModeGrantsTempFullAccess) {
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Store<int64_t>(PageAddr(9), 4);  // compute W
  ms_.BeginPushdownSession(CoherenceMode::kNone);
  auto mc = ms_.CreateContext(Pool::kMemory);
  mc->Store<int64_t>(PageAddr(9), 5);  // would fault under MESI
  EXPECT_EQ(mc->metrics().coherence_messages, 0u);
  ms_.EndPushdownSession();
}

TEST_F(CoherenceTest, TiebreakFavorsMemoryPool) {
  auto cc = ms_.CreateContext(Pool::kCompute);
  cc->Load<int64_t>(PageAddr(10));  // (R, R) after session start
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  auto mc = ms_.CreateContext(Pool::kMemory);
  // Line the memory-side upgrade up so its in-flight window overlaps the
  // compute thread's next write on the virtual timeline.
  mc->AdvanceTime(cc->now());
  mc->Store<int64_t>(PageAddr(10), 1);  // memory upgrade, in-flight window
  // A compute write fault that (virtually) races inside the window loses
  // the tiebreak: it completes only after the window plus backoff.
  const Nanos before = cc->now();
  cc->Store<int64_t>(PageAddr(10), 2);
  EXPECT_GE(cc->now(), before + MemorySystem::kTiebreakBackoffNs);
  ms_.CheckSwmrInvariant();
  ms_.EndPushdownSession();
}

TEST_F(CoherenceTest, EndSessionClearsTempState) {
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  auto mc = ms_.CreateContext(Pool::kMemory);
  mc->Store<int64_t>(PageAddr(11), 6);
  ms_.EndPushdownSession();
  EXPECT_EQ(ms_.temp_perm(ms_.space().PageOf(PageAddr(11))), Perm::kNone);
  EXPECT_FALSE(ms_.pushdown_active());
}

TEST_F(CoherenceTest, RefcountedConcurrentSessions) {
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  ms_.BeginPushdownSession(CoherenceMode::kMesi);
  ms_.EndPushdownSession();
  EXPECT_TRUE(ms_.pushdown_active());
  ms_.EndPushdownSession();
  EXPECT_FALSE(ms_.pushdown_active());
}

// Property test: the SWMR invariant holds after every operation of a random
// two-sided access sequence under the default protocol, and both sides
// always observe the latest written value (coherence ≡ correctness).
class SwmrPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SwmrPropertyTest, RandomOpsPreserveSwmrAndData) {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 8 * kPage;
  c.memory_pool_bytes = 256 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 4 << 20);
  const VAddr base = ms.space().Alloc(16 * kPage, "d");
  ms.SeedData();
  tp::ModelChecker checker(&ms, tp::ModelChecker::OnViolation::kRecord);
  Rng rng(GetParam());

  auto cc = ms.CreateContext(Pool::kCompute);
  // Warm a random subset of the cache before the session starts.
  for (int i = 0; i < 10; ++i) {
    const VAddr a = base + rng.Uniform(16) * kPage;
    if (rng.Bernoulli(0.5)) {
      cc->Store<int64_t>(a, -1);
    } else {
      cc->Load<int64_t>(a);
    }
  }

  ms.BeginPushdownSession(CoherenceMode::kMesi);
  auto mc = ms.CreateContext(Pool::kMemory);
  int64_t expected[16] = {};
  for (int p = 0; p < 16; ++p) {
    expected[p] = cc->Load<int64_t>(base + static_cast<VAddr>(p) * kPage);
  }
  for (int i = 0; i < 400; ++i) {
    const int p = static_cast<int>(rng.Uniform(16));
    const VAddr a = base + static_cast<VAddr>(p) * kPage;
    const bool memory_side = rng.Bernoulli(0.5);
    ExecutionContext& ctx = memory_side ? *mc : *cc;
    if (rng.Bernoulli(0.4)) {
      const int64_t v = static_cast<int64_t>(rng.Next() >> 1);
      ctx.Store<int64_t>(a, v);
      expected[p] = v;
    } else {
      EXPECT_EQ(ctx.Load<int64_t>(a), expected[p])
          << "stale read on page " << p << " (op " << i << ")";
    }
    ms.CheckSwmrInvariant();
  }
  ms.EndPushdownSession();
  EXPECT_EQ(checker.Finish(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwmrPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

}  // namespace
}  // namespace teleport::ddc
