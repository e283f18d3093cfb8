#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "teleport/model_checker.h"
#include "teleport/pushdown.h"

namespace teleport::tp {
namespace {

using ddc::CoherenceMode;
using ddc::DdcConfig;
using ddc::ExecutionContext;
using ddc::MemorySystem;
using ddc::Platform;
using ddc::Pool;
using ddc::VAddr;

constexpr uint64_t kPage = 4096;

DdcConfig Config() {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 32 * kPage;
  c.memory_pool_bytes = 4096 * kPage;
  return c;
}

class SyncTest : public ::testing::Test {
 protected:
  SyncTest()
      : ms_(Config(), sim::CostParams::Default(), 64 << 20),
        checker_(&ms_, ModelChecker::OnViolation::kRecord) {}

  void TearDown() override { EXPECT_EQ(checker_.Finish(), 0u); }

  VAddr MakeDirtyPages(ExecutionContext& ctx, int pages) {
    const VAddr a = ms_.space().Alloc(static_cast<uint64_t>(pages) * kPage,
                                      "dirty");
    for (int p = 0; p < pages; ++p) {
      ctx.Store<int64_t>(a + static_cast<VAddr>(p) * kPage, p);
    }
    return a;
  }

  MemorySystem ms_;
  ModelChecker checker_;
};

TEST_F(SyncTest, SyncmemFlushesOnlyDirtyPagesInRange) {
  auto ctx = ms_.CreateContext(Pool::kCompute);
  const VAddr a = MakeDirtyPages(*ctx, 8);
  // Flush pages 2..3 only.
  ms_.Syncmem(*ctx, a + 2 * kPage, 2 * kPage);
  EXPECT_EQ(ctx->metrics().syncmem_pages, 2u);
  EXPECT_EQ(ctx->metrics().bytes_to_memory_pool, 2 * kPage);
  EXPECT_FALSE(ms_.compute_dirty(ms_.space().PageOf(a + 2 * kPage)));
  EXPECT_TRUE(ms_.compute_dirty(ms_.space().PageOf(a + 4 * kPage)));
  // Flushed pages stay cached, read-only.
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(a + 2 * kPage)),
            ddc::Perm::kRead);
}

// A zero-length syncmem covers no page, wherever it points: no dirty bit,
// clock or counter moves (the range's last page must not wrap around).
TEST_F(SyncTest, ZeroLengthSyncmemFlushesNothing) {
  auto ctx = ms_.CreateContext(Pool::kCompute);
  const VAddr a = MakeDirtyPages(*ctx, 8);
  const Nanos before = ctx->now();
  const std::string metrics = ctx->metrics().ToString();
  ms_.Syncmem(*ctx, 0, 0);
  ms_.Syncmem(*ctx, a + 3 * kPage + 8, 0);
  EXPECT_EQ(ctx->now(), before);
  EXPECT_EQ(ctx->metrics().ToString(), metrics);
  for (int p = 0; p < 8; ++p) {
    EXPECT_TRUE(ms_.compute_dirty(ms_.space().PageOf(a + p * kPage)))
        << "page " << p;
  }
}

TEST_F(SyncTest, SyncmemIsIdempotent) {
  auto ctx = ms_.CreateContext(Pool::kCompute);
  const VAddr a = MakeDirtyPages(*ctx, 4);
  ms_.Syncmem(*ctx, a, 4 * kPage);
  const uint64_t bytes = ctx->metrics().bytes_to_memory_pool;
  ms_.Syncmem(*ctx, a, 4 * kPage);  // nothing dirty anymore
  EXPECT_EQ(ctx->metrics().bytes_to_memory_pool, bytes);
}

TEST_F(SyncTest, FlushAllCacheMovesEverythingAndDrops) {
  auto ctx = ms_.CreateContext(Pool::kCompute);
  const VAddr a = MakeDirtyPages(*ctx, 10);
  const uint64_t moved = ms_.FlushAllCache(*ctx, /*drop=*/true);
  EXPECT_EQ(moved, 10u);
  EXPECT_EQ(ms_.cache_pages_used(), 0u);
  for (int p = 0; p < 10; ++p) {
    EXPECT_TRUE(ms_.in_memory_pool(ms_.space().PageOf(a + p * kPage)));
  }
}

TEST_F(SyncTest, FlushRangeLeavesOtherPagesCached) {
  auto ctx = ms_.CreateContext(Pool::kCompute);
  const VAddr a = MakeDirtyPages(*ctx, 10);
  ms_.FlushRange(*ctx, a, 5 * kPage, /*drop=*/true);
  EXPECT_EQ(ms_.cache_pages_used(), 5u);
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(a)), ddc::Perm::kNone);
  EXPECT_NE(ms_.compute_perm(ms_.space().PageOf(a + 6 * kPage)),
            ddc::Perm::kNone);
}

TEST_F(SyncTest, BulkRefetchRestoresFlushedPagesClean) {
  auto ctx = ms_.CreateContext(Pool::kCompute);
  const VAddr a = MakeDirtyPages(*ctx, 6);
  const uint64_t moved = ms_.FlushAllCache(*ctx, /*drop=*/true);
  ms_.BulkRefetch(*ctx, moved);
  EXPECT_EQ(ms_.cache_pages_used(), 6u);
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(a)), ddc::Perm::kRead);
  EXPECT_FALSE(ms_.compute_dirty(ms_.space().PageOf(a)));
}

TEST_F(SyncTest, EagerStrategyPaysUpfrontOnDemandDoesNot) {
  // Fig 20: eager sync moves the whole cache before and after; on-demand
  // moves nothing up front. Compare pre/post phases of the breakdown.
  auto run = [&](SyncStrategy sync, PushdownBreakdown* bd) {
    MemorySystem ms(Config(), sim::CostParams::Default(), 64 << 20);
    ModelChecker checker(&ms, ModelChecker::OnViolation::kRecord);
    PushdownRuntime rt(&ms);
    auto ctx = ms.CreateContext(Pool::kCompute);
    const VAddr a = ms.space().Alloc(16 * kPage, "d");
    for (int p = 0; p < 16; ++p) {
      ctx->Store<int64_t>(a + static_cast<VAddr>(p) * kPage, p);
    }
    PushdownFlags flags;
    flags.sync = sync;
    Status st = rt.Call(
        *ctx,
        [&](ExecutionContext& mc) {
          mc.Load<int64_t>(a);
          return Status::OK();
        },
        flags);
    ASSERT_TRUE(st.ok());
    *bd = rt.last_breakdown();
    EXPECT_EQ(checker.Finish(), 0u);
  };
  PushdownBreakdown eager, on_demand;
  run(SyncStrategy::kEager, &eager);
  run(SyncStrategy::kOnDemand, &on_demand);
  EXPECT_GT(eager.pre_sync_ns, 10 * on_demand.pre_sync_ns);
  EXPECT_GT(eager.post_sync_ns, on_demand.post_sync_ns);
  // On-demand pays more in context setup (per-PTE permission checks, §7.5).
  EXPECT_GT(on_demand.context_setup_ns, eager.context_setup_ns);
  // And overall, on-demand wins by a wide margin (0.3s vs 3.5s in Fig 20).
  EXPECT_LT(on_demand.Total(), eager.Total());
}

TEST_F(SyncTest, EagerRangeFlushesOnlyTheRange) {
  PushdownRuntime rt(&ms_);
  auto ctx = ms_.CreateContext(Pool::kCompute);
  const VAddr a = MakeDirtyPages(*ctx, 8);
  PushdownFlags flags;
  flags.sync = SyncStrategy::kEagerRange;
  flags.sync_addr = a;
  flags.sync_len = 4 * kPage;
  ASSERT_TRUE(rt.Call(
                    *ctx,
                    [&](ExecutionContext& mc) {
                      mc.Load<int64_t>(a);
                      return Status::OK();
                    },
                    flags)
                  .ok());
  // The other 4 pages survived in the cache.
  EXPECT_EQ(ms_.cache_pages_used(), 4u);
}

TEST_F(SyncTest, DataCorrectAcrossEveryStrategy) {
  for (SyncStrategy sync :
       {SyncStrategy::kOnDemand, SyncStrategy::kEager,
        SyncStrategy::kEagerRange}) {
    MemorySystem ms(Config(), sim::CostParams::Default(), 64 << 20);
    ModelChecker checker(&ms, ModelChecker::OnViolation::kRecord);
    PushdownRuntime rt(&ms);
    auto ctx = ms.CreateContext(Pool::kCompute);
    const VAddr a = ms.space().Alloc(4 * kPage, "d");
    for (int i = 0; i < 100; ++i) ctx->Store<int64_t>(a + i * 8, i);
    PushdownFlags flags;
    flags.sync = sync;
    flags.sync_addr = a;
    flags.sync_len = 4 * kPage;
    int64_t sum = 0;
    ASSERT_TRUE(rt.Call(
                      *ctx,
                      [&](ExecutionContext& mc) {
                        for (int i = 0; i < 100; ++i) {
                          sum += mc.Load<int64_t>(a + i * 8);
                        }
                        return Status::OK();
                      },
                      flags)
                    .ok());
    EXPECT_EQ(sum, 4950) << SyncStrategyToString(sync);
    // Caller sees memory-side writes after return, too.
    ASSERT_TRUE(rt.Call(
                      *ctx,
                      [&](ExecutionContext& mc) {
                        mc.Store<int64_t>(a, 1000);
                        return Status::OK();
                      },
                      flags)
                    .ok());
    EXPECT_EQ(ctx->Load<int64_t>(a), 1000) << SyncStrategyToString(sync);
    EXPECT_EQ(checker.Finish(), 0u) << SyncStrategyToString(sync);
  }
}

TEST_F(SyncTest, CoherenceModePassedThroughFlags) {
  PushdownRuntime rt(&ms_);
  auto ctx = ms_.CreateContext(Pool::kCompute);
  const VAddr a = MakeDirtyPages(*ctx, 2);
  PushdownFlags flags;
  flags.coherence = CoherenceMode::kPso;
  ASSERT_TRUE(rt.Call(
                    *ctx,
                    [&](ExecutionContext& mc) {
                      EXPECT_EQ(ms_.coherence_mode(), CoherenceMode::kPso);
                      mc.Store<int64_t>(a, 1);
                      return Status::OK();
                    },
                    flags)
                  .ok());
  // PSO write against the dirty compute copy downgraded rather than evicted.
  EXPECT_EQ(ms_.compute_perm(ms_.space().PageOf(a)), ddc::Perm::kRead);
}

}  // namespace
}  // namespace teleport::tp
