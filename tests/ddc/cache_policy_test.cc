#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ddc/memory_system.h"

namespace teleport::ddc {
namespace {

constexpr uint64_t kPage = 4096;

MemorySystem MakeSystem(CachePolicy policy, uint64_t cache_pages = 4) {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = cache_pages * kPage;
  c.memory_pool_bytes = 1024 * kPage;
  c.cache_policy = policy;
  return MemorySystem(c, sim::CostParams::Default(), 8 << 20);
}

TEST(CachePolicyTest, LruKeepsRecentlyTouchedPage) {
  MemorySystem ms = MakeSystem(CachePolicy::kLru);
  const VAddr a = ms.space().Alloc(16 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  for (int p = 0; p < 4; ++p) (void)ctx->Load<int64_t>(a + p * kPage);
  (void)ctx->Load<int64_t>(a);        // promote page 0
  (void)ctx->Load<int64_t>(a + 4 * kPage);  // evicts page 1
  EXPECT_NE(ms.compute_perm(0), Perm::kNone);
  EXPECT_EQ(ms.compute_perm(1), Perm::kNone);
}

TEST(CachePolicyTest, FifoEvictsOldestDespiteHits) {
  MemorySystem ms = MakeSystem(CachePolicy::kFifo);
  const VAddr a = ms.space().Alloc(16 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  for (int p = 0; p < 4; ++p) (void)ctx->Load<int64_t>(a + p * kPage);
  (void)ctx->Load<int64_t>(a);        // hit on page 0: no promotion
  (void)ctx->Load<int64_t>(a + 4 * kPage);  // evicts page 0 anyway
  EXPECT_EQ(ms.compute_perm(0), Perm::kNone);
  EXPECT_NE(ms.compute_perm(1), Perm::kNone);
}

TEST(CachePolicyTest, ClockGivesReferencedPageASecondChance) {
  MemorySystem ms = MakeSystem(CachePolicy::kClock);
  const VAddr a = ms.space().Alloc(16 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  for (int p = 0; p < 4; ++p) (void)ctx->Load<int64_t>(a + p * kPage);
  (void)ctx->Load<int64_t>(a);        // sets page 0's reference bit
  (void)ctx->Load<int64_t>(a + 4 * kPage);
  // Page 0 was spared (bit cleared, moved up); page 1 went instead.
  EXPECT_NE(ms.compute_perm(0), Perm::kNone);
  EXPECT_EQ(ms.compute_perm(1), Perm::kNone);
  // A second insertion without intervening touches now claims page 0's
  // slot later than 2 and 3 (it was re-queued at the front).
  (void)ctx->Load<int64_t>(a + 5 * kPage);  // evicts page 2 (unreferenced)
  EXPECT_EQ(ms.compute_perm(2), Perm::kNone);
  EXPECT_NE(ms.compute_perm(0), Perm::kNone);
}

// A bulk refetch re-caches pages exactly like demand faults do: each
// arrives with a clear reference bit, whatever bit it held before the
// flush dropped it.
TEST(CachePolicyTest, ClockRefetchClearsReferenceBits) {
  auto survivor_after_refill = [](bool bulk) {
    MemorySystem ms = MakeSystem(CachePolicy::kClock);
    const VAddr a = ms.space().Alloc(16 * kPage, "d");
    ms.SeedData();
    auto ctx = ms.CreateContext(Pool::kCompute);
    for (int p = 0; p < 4; ++p) (void)ctx->Load<int64_t>(a + p * kPage);
    (void)ctx->Load<int64_t>(a);  // sets page 0's reference bit
    const uint64_t moved = ms.FlushAllCache(*ctx, /*drop=*/true);
    EXPECT_EQ(moved, 4u);
    if (bulk) {
      ms.BulkRefetch(*ctx, moved);
    } else {
      for (int p = 0; p < 4; ++p) (void)ctx->Load<int64_t>(a + p * kPage);
    }
    EXPECT_EQ(ms.cache_pages_used(), 4u);
    (void)ctx->Load<int64_t>(a + 4 * kPage);  // evicts at the hand
    return ms.compute_perm(0) != Perm::kNone;
  };
  EXPECT_FALSE(survivor_after_refill(/*bulk=*/false));
  EXPECT_FALSE(survivor_after_refill(/*bulk=*/true));
}

// A page that leaves the cache takes its CLOCK reference bit with it, so
// the placement audit finds no bit on a page the cache no longer holds.
TEST(CachePolicyTest, ClockFlushDropLeavesNoStaleReferenceBit) {
  MemorySystem ms = MakeSystem(CachePolicy::kClock);
  const VAddr a = ms.space().Alloc(16 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  for (int p = 0; p < 4; ++p) (void)ctx->Load<int64_t>(a + p * kPage);
  (void)ctx->Load<int64_t>(a);  // sets page 0's reference bit
  EXPECT_EQ(ms.AuditPlacement(), "");
  EXPECT_EQ(ms.FlushRange(*ctx, a, 4 * kPage, /*drop=*/true), 4u);
  EXPECT_EQ(ms.cache_pages_used(), 0u);
  EXPECT_EQ(ms.AuditPlacement(), "");
}

TEST(CachePolicyTest, PolicyNamesAreStable) {
  EXPECT_EQ(CachePolicyToString(CachePolicy::kLru), "LRU");
  EXPECT_EQ(CachePolicyToString(CachePolicy::kFifo), "FIFO");
  EXPECT_EQ(CachePolicyToString(CachePolicy::kClock), "CLOCK");
}

/// Property: the replacement policy changes timing, never data. Random
/// read/write traces must produce identical final memory contents under
/// every policy.
class PolicyEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolicyEquivalenceTest, DataIdenticalUnderEveryPolicy) {
  constexpr int kPages = 48;
  int64_t reference[kPages] = {};
  bool first = true;
  for (const CachePolicy policy :
       {CachePolicy::kLru, CachePolicy::kFifo, CachePolicy::kClock}) {
    MemorySystem ms = MakeSystem(policy, /*cache_pages=*/6);
    const VAddr a = ms.space().Alloc(kPages * kPage, "d");
    ms.SeedData();
    auto ctx = ms.CreateContext(Pool::kCompute);
    Rng rng(GetParam());
    for (int i = 0; i < 4000; ++i) {
      const auto p = static_cast<uint64_t>(rng.Uniform(kPages));
      if (rng.Bernoulli(0.5)) {
        ctx->Store<int64_t>(a + p * kPage, static_cast<int64_t>(i));
      } else {
        (void)ctx->Load<int64_t>(a + p * kPage);
      }
      ASSERT_LE(ms.cache_pages_used(), 6u);
    }
    for (int p = 0; p < kPages; ++p) {
      const int64_t v = ctx->Load<int64_t>(a + p * kPage);
      if (first) {
        reference[p] = v;
      } else {
        ASSERT_EQ(v, reference[p])
            << "policy " << CachePolicyToString(policy) << " page " << p;
      }
    }
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyEquivalenceTest,
                         ::testing::Values(19, 23, 29, 31));

TEST(CachePolicyTest, ScanResistanceOrdering) {
  // A loop over a working set slightly larger than the cache is LRU's
  // worst case (every access misses); FIFO behaves the same; CLOCK also
  // degenerates. This documents WHY §2.2 says caching cannot rescue
  // scan-heavy operators: no policy gets hits on a cyclic scan.
  auto misses = [](CachePolicy policy) {
    MemorySystem ms = MakeSystem(policy, /*cache_pages=*/8);
    const VAddr a = ms.space().Alloc(10 * kPage, "d");
    ms.SeedData();
    auto ctx = ms.CreateContext(Pool::kCompute);
    for (int round = 0; round < 20; ++round) {
      for (int p = 0; p < 10; ++p) (void)ctx->Load<int64_t>(a + p * kPage);
    }
    return ctx->metrics().cache_misses;
  };
  const uint64_t lru = misses(CachePolicy::kLru);
  const uint64_t fifo = misses(CachePolicy::kFifo);
  const uint64_t clock = misses(CachePolicy::kClock);
  // All policies miss on the large majority of the 200 accesses.
  EXPECT_GT(lru, 150u);
  EXPECT_GT(fifo, 150u);
  EXPECT_GT(clock, 150u);
}

}  // namespace
}  // namespace teleport::ddc
