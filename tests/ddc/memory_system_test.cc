#include "ddc/memory_system.h"

#include <cstdint>
#include <cstdlib>
#include <string_view>

#include <gtest/gtest.h>

#include "net/faults.h"

namespace teleport::ddc {
namespace {

constexpr uint64_t kPage = 4096;

DdcConfig SmallDdc() {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 4 * kPage;
  c.memory_pool_bytes = 64 * kPage;
  return c;
}

TEST(MemorySystemTest, ScalarDatapathKnobAcceptsOnlyZeroOrOne) {
  for (const char* bad : {"yes", "true", "2", "10"}) {
    EXPECT_DEATH(
        {
          ::setenv("TELEPORT_SCALAR_DATAPATH", bad, 1);
          MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
        },
        "TELEPORT_SCALAR_DATAPATH.*expected 0 or 1")
        << bad;
  }
}

TEST(MemorySystemTest, StoreLoadRoundTrip) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(8 * kPage, "data");
  auto ctx = ms.CreateContext(Pool::kCompute);
  ctx->Store<int64_t>(a + 16, 424242);
  EXPECT_EQ(ctx->Load<int64_t>(a + 16), 424242);
}

TEST(MemorySystemTest, FirstTouchAllocatesWithoutPageTransfer) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(kPage, "fresh");
  auto ctx = ms.CreateContext(Pool::kCompute);
  ctx->Store<int64_t>(a, 1);
  EXPECT_EQ(ctx->metrics().cache_misses, 1u);
  EXPECT_EQ(ctx->metrics().bytes_from_memory_pool, 0u);
  // But the allocation still round-trips to the pool controller (§3).
  EXPECT_EQ(ctx->metrics().net_messages, 2u);
}

TEST(MemorySystemTest, SeededPageFetchTransfersPage) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(kPage, "seeded");
  ms.SeedData();
  ASSERT_TRUE(ms.in_memory_pool(0));
  auto ctx = ms.CreateContext(Pool::kCompute);
  ctx->Load<int64_t>(a);
  EXPECT_EQ(ctx->metrics().cache_misses, 1u);
  EXPECT_EQ(ctx->metrics().bytes_from_memory_pool, kPage);
}

TEST(MemorySystemTest, SecondAccessIsCacheHit) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  ctx->Load<int64_t>(a);
  const Nanos after_miss = ctx->now();
  ctx->Load<int64_t>(a + 8);
  EXPECT_EQ(ctx->metrics().cache_hits, 1u);
  // A hit is orders of magnitude cheaper than the fault.
  EXPECT_LT(ctx->now() - after_miss, after_miss / 10);
}

TEST(MemorySystemTest, SequentialAccessCheaperThanPageCrossing) {
  DdcConfig c = SmallDdc();
  c.platform = Platform::kLocal;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(4 * kPage, "d");
  auto ctx = ms.CreateContext(Pool::kCompute);
  ctx->Load<int64_t>(a);  // establish last_page
  const Nanos t0 = ctx->now();
  ctx->Load<int64_t>(a + 8);  // same page
  const Nanos seq = ctx->now() - t0;
  ctx->Load<int64_t>(a + kPage);  // crosses a page
  const Nanos cross = ctx->now() - t0 - seq;
  EXPECT_LT(seq, cross);
}

TEST(MemorySystemTest, LruEvictionWritesBackDirtyPages) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(8 * kPage, "d");
  auto ctx = ms.CreateContext(Pool::kCompute);
  // Dirty 5 pages; cache holds 4 -> one dirty eviction.
  for (int p = 0; p < 5; ++p) ctx->Store<int64_t>(a + p * kPage, p);
  EXPECT_EQ(ctx->metrics().cache_evictions, 1u);
  EXPECT_EQ(ctx->metrics().dirty_writebacks, 1u);
  EXPECT_EQ(ctx->metrics().bytes_to_memory_pool, kPage);
  // The evicted page (page 0, least recently used) now lives in the pool.
  EXPECT_TRUE(ms.in_memory_pool(0));
  EXPECT_EQ(ms.compute_perm(0), Perm::kNone);
}

TEST(MemorySystemTest, LruOrderIsRecencyBased) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(8 * kPage, "d");
  auto ctx = ms.CreateContext(Pool::kCompute);
  for (int p = 0; p < 4; ++p) ctx->Store<int64_t>(a + p * kPage, p);
  // Touch page 0 again so page 1 becomes LRU.
  ctx->Load<int64_t>(a);
  ctx->Store<int64_t>(a + 4 * kPage, 4);  // evicts page 1
  EXPECT_EQ(ms.compute_perm(0), Perm::kWrite);
  EXPECT_EQ(ms.compute_perm(1), Perm::kNone);
}

TEST(MemorySystemTest, CleanEvictionCostsNoTraffic) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(8 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  for (int p = 0; p < 5; ++p) ctx->Load<int64_t>(a + p * kPage);
  EXPECT_EQ(ctx->metrics().cache_evictions, 1u);
  EXPECT_EQ(ctx->metrics().dirty_writebacks, 0u);
  EXPECT_EQ(ctx->metrics().bytes_to_memory_pool, 0u);
}

TEST(MemorySystemTest, MemoryPoolSpillsToStorage) {
  DdcConfig c = SmallDdc();
  c.memory_pool_bytes = 2 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  ms.space().Alloc(4 * kPage, "big");
  ms.SeedData();
  // Only 2 of 4 pages fit in the pool; the rest went to storage.
  int in_pool = 0, on_storage = 0;
  for (PageId p = 0; p < 4; ++p) {
    in_pool += ms.in_memory_pool(p) ? 1 : 0;
    on_storage += ms.on_storage(p) ? 1 : 0;
  }
  EXPECT_EQ(in_pool, 2);
  EXPECT_EQ(on_storage, 2);
}

TEST(MemorySystemTest, RecursivePageFaultReadsStorage) {
  DdcConfig c = SmallDdc();
  c.memory_pool_bytes = 2 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(4 * kPage, "big");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  // Find a page that spilled and fault it: compute fault -> pool fault ->
  // storage read (the recursive path of §2.1).
  PageId spilled = 0;
  for (PageId p = 0; p < 4; ++p) {
    if (ms.on_storage(p)) {
      spilled = p;
      break;
    }
  }
  ctx->Load<int64_t>(a + spilled * kPage);
  EXPECT_EQ(ctx->metrics().storage_reads, 1u);
  EXPECT_EQ(ctx->metrics().cache_misses, 1u);
}

TEST(MemorySystemTest, MemoryPoolContextHitsPoolDram) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(4 * kPage, "d");
  ms.SeedData();
  auto mem_ctx = ms.CreateContext(Pool::kMemory);
  for (int p = 0; p < 4; ++p) mem_ctx->Load<int64_t>(a + p * kPage);
  EXPECT_EQ(mem_ctx->metrics().memory_pool_hits, 4u);
  EXPECT_EQ(mem_ctx->metrics().net_messages, 0u);
  EXPECT_EQ(mem_ctx->metrics().bytes_from_memory_pool, 0u);
}

TEST(MemorySystemTest, MemoryPoolContextTrueFaultToStorage) {
  DdcConfig c = SmallDdc();
  c.memory_pool_bytes = 2 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(4 * kPage, "big");
  ms.SeedData();
  auto mem_ctx = ms.CreateContext(Pool::kMemory);
  for (int p = 0; p < 4; ++p) mem_ctx->Load<int64_t>(a + p * kPage);
  EXPECT_GT(mem_ctx->metrics().memory_pool_faults, 0u);
  EXPECT_GT(mem_ctx->metrics().storage_reads, 0u);
  EXPECT_EQ(mem_ctx->metrics().net_messages, 0u);  // no compute involvement
}

TEST(MemorySystemTest, WriteUpgradeIsLocalOutsidePushdown) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  ctx->Load<int64_t>(a);  // fetch read-only
  ASSERT_EQ(ms.compute_perm(0), Perm::kRead);
  const uint64_t msgs = ctx->metrics().net_messages;
  ctx->Store<int64_t>(a, 5);  // upgrade
  EXPECT_EQ(ms.compute_perm(0), Perm::kWrite);
  EXPECT_EQ(ctx->metrics().net_messages, msgs);  // no traffic
  EXPECT_TRUE(ms.compute_dirty(0));
}

TEST(MemorySystemTest, MultiPageRangeTouchesEveryPage) {
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(4 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  ctx->ReadRange(a + 100, 2 * kPage);  // spans 3 pages
  EXPECT_EQ(ctx->metrics().cache_misses, 3u);
}

TEST(MemorySystemTest, ChargeCpuScalesWithPoolClock) {
  DdcConfig c = SmallDdc();
  c.memory_pool_clock_ratio = 0.5;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  auto cc = ms.CreateContext(Pool::kCompute);
  auto mc = ms.CreateContext(Pool::kMemory);
  cc->ChargeCpu(1'000'000);
  mc->ChargeCpu(1'000'000);
  EXPECT_NEAR(static_cast<double>(mc->now()),
              2.0 * static_cast<double>(cc->now()),
              static_cast<double>(cc->now()) * 0.01);
}

// Page lookups never grow the page table; every entry that reaches one
// grows it first. Each step starts on a region allocated since the last
// growth, so an entry that skipped it would leave the table short of the
// address space, and the first lookup past its end would trip the bounds
// DCHECK in PS() or LruList::Contains.
TEST(MemorySystemTest, EveryEntryPointGrowsThePageTables) {
  net::FaultInjector injector(/*seed=*/1);
  MemorySystem ms(SmallDdc(), sim::CostParams::Default(), 1 << 20);
  auto ctx = ms.CreateContext(Pool::kCompute);
  const auto fresh = [&ms] { return ms.space().Alloc(2 * kPage, "fresh"); };
  const auto expect_grown = [](const MemorySystem& m, std::string_view step) {
    EXPECT_EQ(m.tracked_pages(), m.space().num_pages()) << step;
    EXPECT_EQ(m.AuditPlacement(), "") << step;
  };

  fresh();
  ms.SeedData();
  expect_grown(ms, "SeedData");
  VAddr a = fresh();
  ms.Syncmem(*ctx, a, 2 * kPage);
  expect_grown(ms, "Syncmem");
  a = fresh();
  ms.FlushRange(*ctx, a, 2 * kPage, /*drop=*/true);
  expect_grown(ms, "FlushRange");
  fresh();
  ms.BeginPushdownSession(CoherenceMode::kMesi);
  ms.EndPushdownSession();
  expect_grown(ms, "Begin/EndPushdownSession");
  fresh();
  injector.ScheduleCrashRestart(/*at=*/10, /*down_for=*/10);
  ms.fabric().set_fault_injector(&injector);
  ms.ApplyPoolRestartsAt(*ctx, /*now=*/100);
  ms.fabric().set_fault_injector(nullptr);
  EXPECT_EQ(ms.pool_restarts_applied(), 1);
  expect_grown(ms, "ApplyPoolRestartsAt");
  a = fresh();
  ms.CreateContext(Pool::kMemory)->Load<int64_t>(a + kPage);
  expect_grown(ms, "memory-pool Load");

  for (const Platform platform :
       {Platform::kLocal, Platform::kLinuxSsd, Platform::kBaseDdc}) {
    DdcConfig c = SmallDdc();
    c.platform = platform;
    MemorySystem other(c, sim::CostParams::Default(), 1 << 20);
    const VAddr b = other.space().Alloc(2 * kPage, "fresh");
    other.CreateContext(Pool::kCompute)->Load<int64_t>(b + kPage);
    expect_grown(other, PlatformToString(platform));
  }
}

}  // namespace
}  // namespace teleport::ddc
