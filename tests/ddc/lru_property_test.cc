#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ddc/memory_system.h"

namespace teleport::ddc {
namespace {

constexpr uint64_t kPage = 4096;

/// Reference model of the compute cache: an LRU list with the same
/// capacity, driven by the same access trace. The simulator's cache
/// contents must match the oracle exactly after every access.
class CacheOracle {
 public:
  explicit CacheOracle(size_t capacity) : capacity_(capacity) {}

  void Touch(PageId p) {
    auto it = pos_.find(p);
    if (it != pos_.end()) {
      lru_.erase(it->second);
    } else if (lru_.size() >= capacity_) {
      pos_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(p);
    pos_[p] = lru_.begin();
  }

  bool Contains(PageId p) const { return pos_.count(p) > 0; }
  size_t size() const { return lru_.size(); }

 private:
  size_t capacity_;
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> pos_;
};

class LruPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruPropertyTest, CacheContentsMatchOracle) {
  constexpr size_t kCapacity = 12;
  constexpr uint64_t kPages = 64;
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = kCapacity * kPage;
  c.memory_pool_bytes = 1024 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 4 << 20);
  const VAddr base = ms.space().Alloc(kPages * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  CacheOracle oracle(kCapacity);

  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const PageId p = rng.Uniform(kPages);
    const VAddr addr = base + p * kPage + rng.Uniform(kPage / 8) * 8;
    if (rng.Bernoulli(0.4)) {
      ctx->Store<int64_t>(addr, static_cast<int64_t>(i));
    } else {
      (void)ctx->Load<int64_t>(addr);
    }
    oracle.Touch(p);
    ASSERT_EQ(ms.cache_pages_used(), oracle.size());
    for (PageId q = 0; q < kPages; ++q) {
      ASSERT_EQ(ms.compute_perm(q) != Perm::kNone, oracle.Contains(q))
          << "page " << q << " after op " << i;
    }
    ASSERT_EQ(ms.AuditPlacement(), "") << "after op " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(PoolCapacityTest, PoolNeverExceedsCapacity) {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 4 * kPage;
  c.memory_pool_bytes = 8 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 4 << 20);
  const VAddr base = ms.space().Alloc(64 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const PageId p = rng.Uniform(64);
    ctx->Store<int64_t>(base + p * kPage, i);
    ASSERT_LE(ms.memory_pool_pages_used(), 8u);
    ASSERT_LE(ms.cache_pages_used(), 4u);
    ASSERT_EQ(ms.AuditPlacement(), "") << "after op " << i;
  }
  EXPECT_GT(ctx->metrics().storage_writes, 0u);  // the pool spilled
}

TEST(PoolCapacityTest, EvictedDataSurvivesRoundTrips) {
  // Pages bounce cache -> pool -> storage -> pool -> cache; values must
  // survive every hop.
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 2 * kPage;
  c.memory_pool_bytes = 4 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 4 << 20);
  const VAddr base = ms.space().Alloc(32 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  for (PageId p = 0; p < 32; ++p) {
    ctx->Store<int64_t>(base + p * kPage, static_cast<int64_t>(p) * 7 + 1);
  }
  // Thrash through everything twice more.
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const PageId p = rng.Uniform(32);
    (void)ctx->Load<int64_t>(base + p * kPage);
  }
  for (PageId p = 0; p < 32; ++p) {
    ASSERT_EQ(ctx->Load<int64_t>(base + p * kPage),
              static_cast<int64_t>(p) * 7 + 1);
  }
}

TEST(PoolCapacityTest, LinuxSsdCacheMatchesOracleToo) {
  constexpr size_t kCapacity = 8;
  DdcConfig c;
  c.platform = Platform::kLinuxSsd;
  c.compute_cache_bytes = kCapacity * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 4 << 20);
  const VAddr base = ms.space().Alloc(40 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  // SeedData put the first kCapacity pages in DRAM already.
  CacheOracle oracle(kCapacity);
  for (PageId p = 0; p < kCapacity; ++p) oracle.Touch(p);
  // Note: seeded pages entered in ascending order; page 0 is the LRU tail
  // in both models (PushFront order matches).
  Rng rng(5);
  for (int i = 0; i < 1500; ++i) {
    const PageId p = rng.Uniform(40);
    (void)ctx->Load<int64_t>(base + p * kPage);
    oracle.Touch(p);
    ASSERT_EQ(ms.cache_pages_used(), oracle.size());
    ASSERT_EQ(ms.AuditPlacement(), "") << "after op " << i;
  }
}

}  // namespace
}  // namespace teleport::ddc
