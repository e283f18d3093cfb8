// Chaos recovery (PR6): with the journal on, a pool crash-restart is
// survivable — the redo journal replays every acknowledged pool write, the
// pool epoch fences stale pushdown admissions, and idempotency tokens make
// duplicated pushdown deliveries exactly-once. Each planted protocol
// mutation (kSkipJournalReplay, kSkipFencing, kReplayDuplicate) must be
// caught by the model checker's recovery invariant (#6).

#include <cstdint>

#include <gtest/gtest.h>

#include "ddc/memory_system.h"
#include "net/faults.h"
#include "teleport/model_checker.h"
#include "teleport/pushdown.h"

namespace teleport {
namespace {

constexpr uint64_t kPage = 4096;

ddc::DdcConfig Config() {
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_cache_bytes = 16 * kPage;
  cfg.memory_pool_bytes = 1024 * kPage;
  return cfg;
}

class ChaosRecoveryTest : public ::testing::Test {
 protected:
  ChaosRecoveryTest()
      : ms_(Config(), sim::CostParams::Default(), 32 << 20), runtime_(&ms_) {
    data_ = ms_.space().Alloc(64 * kPage, "d");
    ms_.SeedData();
    ms_.set_journal_enabled(true);
    ms_.fabric().set_fault_injector(&inj_);
  }

  /// Dirties 64 pages through the 16-page cache; the forced writebacks are
  /// acknowledged pool writes, each covered by a redo record.
  void DirtyPages(ddc::ExecutionContext& ctx) {
    for (uint64_t p = 0; p < 64; ++p) {
      ctx.Store<int64_t>(data_ + p * kPage, static_cast<int64_t>(p) + 1);
    }
  }

  Status Touch(ddc::ExecutionContext& caller) {
    return runtime_.Call(caller, [&](ddc::ExecutionContext& mc) {
      (void)mc.Load<int64_t>(data_);
      return Status::OK();
    });
  }

  ddc::MemorySystem ms_;
  tp::PushdownRuntime runtime_;
  net::FaultInjector inj_{/*seed=*/7};
  ddc::VAddr data_ = 0;
};

// The tentpole promise: every acknowledged pool write survives the crash.
// Records stay live across replay, so a back-to-back second crash recovers
// the same pages again.
TEST_F(ChaosRecoveryTest, JournalReplayRecoversAcknowledgedWrites) {
  tp::ModelChecker checker(&ms_, tp::ModelChecker::OnViolation::kRecord);
  auto ctx = ms_.CreateContext(ddc::Pool::kCompute);
  DirtyPages(*ctx);
  ASSERT_GT(ctx->metrics().dirty_writebacks, 0u);
  const uint64_t live = ms_.journal().live_records();
  ASSERT_GT(live, 0u);

  inj_.ScheduleCrashRestart(ctx->now() + 1 * kMillisecond,
                            /*down_for=*/500 * kMicrosecond);
  ctx->AdvanceTime(10 * kMillisecond);
  const ddc::MemorySystem::RestartOutcome out =
      ms_.ApplyPoolRestartsAt(*ctx, ctx->now());
  EXPECT_EQ(out.lost, 0u);
  EXPECT_EQ(out.recovered, live);
  EXPECT_EQ(out.recovery_ns, ms_.journal().ReplayCost(live));
  EXPECT_EQ(ms_.pool_epoch(), 2u);
  EXPECT_EQ(ms_.lost_pool_writes(), 0u);
  EXPECT_EQ(ms_.recovered_pool_writes(), live);
  EXPECT_EQ(ctx->metrics().recovered_pool_writes, live);
  EXPECT_EQ(ctx->metrics().lost_pool_writes, 0u);
  // Replay re-materialized exactly the journaled pages into pool DRAM.
  EXPECT_EQ(ms_.memory_pool_pages_used(), live);
  // Records stay live: the recovered copies are still ahead of storage.
  EXPECT_EQ(ms_.journal().live_records(), live);

  // A second crash-restart recovers the same set again.
  inj_.ScheduleCrashRestart(ctx->now() + 1 * kMillisecond,
                            /*down_for=*/500 * kMicrosecond);
  ctx->AdvanceTime(10 * kMillisecond);
  const ddc::MemorySystem::RestartOutcome again =
      ms_.ApplyPoolRestartsAt(*ctx, ctx->now());
  EXPECT_EQ(again.lost, 0u);
  EXPECT_EQ(again.recovered, live);
  EXPECT_EQ(ms_.pool_epoch(), 3u);

  // The data is intact after both recoveries.
  for (uint64_t p = 0; p < 64; ++p) {
    EXPECT_EQ(ctx->Load<int64_t>(data_ + p * kPage),
              static_cast<int64_t>(p) + 1);
  }
  EXPECT_EQ(checker.Finish(), 0u);
}

// Writes the journal never acknowledged — out-of-session direct pool
// stores — are genuinely unrecoverable: the loss is counted once and the
// next pushdown surfaces it as Unavailable; after that the system moves on.
TEST_F(ChaosRecoveryTest, UnjournaledDirectPoolWritesAreReportedLost) {
  auto mem = ms_.CreateContext(ddc::Pool::kMemory);
  mem->Store<int64_t>(data_, 42);  // direct pool write, no session
  EXPECT_EQ(ms_.journal().live_records(), 0u);

  auto caller = ms_.CreateContext(ddc::Pool::kCompute);
  inj_.ScheduleCrashRestart(caller->now() + 1 * kMillisecond,
                            /*down_for=*/500 * kMicrosecond);
  caller->AdvanceTime(10 * kMillisecond);

  const Status st = Touch(*caller);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable()) << st;
  EXPECT_NE(st.message().find("unrecoverable"), std::string::npos) << st;
  EXPECT_GT(ms_.lost_pool_writes(), 0u);

  // The loss was reported exactly once; the next call proceeds normally.
  const Status st2 = Touch(*caller);
  EXPECT_TRUE(st2.ok()) << st2;
  EXPECT_FALSE(runtime_.panicked());
}

// A crash-restart window that completes between call admission and the
// pool-side queue point makes the lease epoch stale: the pool fences the
// RPC, and the runtime re-admits under the fresh epoch and succeeds.
TEST_F(ChaosRecoveryTest, StaleEpochIsFencedThenReadmitted) {
  tp::ModelChecker checker(&ms_, tp::ModelChecker::OnViolation::kRecord);
  auto caller = ms_.CreateContext(ddc::Pool::kCompute);
  // The window opens just after admission and closes long before the
  // request reaches the pool (the one-way trip is microseconds).
  inj_.ScheduleCrashRestart(caller->now() + 100, /*down_for=*/200);

  const Status st = Touch(*caller);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(runtime_.fenced_rpcs(), 1u);
  EXPECT_EQ(caller->metrics().fenced_rpcs, 1u);
  EXPECT_EQ(ms_.pool_epoch(), 2u);
  // Fencing time lands in the breakdown, which still sums exactly.
  EXPECT_EQ(runtime_.last_breakdown().Total(), caller->now());
  EXPECT_GT(runtime_.last_breakdown().retry_ns, 0);
  EXPECT_EQ(checker.Finish(), 0u);
}

// Duplicated request deliveries present the same idempotency token; the
// pool executes the first and absorbs the rest.
TEST_F(ChaosRecoveryTest, DuplicateDeliveriesAreAbsorbedExactlyOnce) {
  net::FaultSpec dup;
  dup.dup_p = 1.0;  // every pushdown request arrives twice
  inj_.SetSpec(net::MessageKind::kPushdownRequest, dup);

  tp::ModelChecker checker(&ms_, tp::ModelChecker::OnViolation::kRecord);
  auto caller = ms_.CreateContext(ddc::Pool::kCompute);
  const Status st = Touch(*caller);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_GT(caller->metrics().dedup_hits, 0u);
  EXPECT_EQ(checker.Finish(), 0u);
}

// --- Planted mutations: each must be caught by invariant #6. -------------

TEST_F(ChaosRecoveryTest, MutationSkipJournalReplayIsCaught) {
  ms_.set_protocol_mutation(ddc::ProtocolMutation::kSkipJournalReplay);
  tp::ModelChecker checker(&ms_, tp::ModelChecker::OnViolation::kRecord);
  auto ctx = ms_.CreateContext(ddc::Pool::kCompute);
  DirtyPages(*ctx);
  ASSERT_GT(ms_.journal().live_records(), 0u);

  inj_.ScheduleCrashRestart(ctx->now() + 1 * kMillisecond,
                            /*down_for=*/500 * kMicrosecond);
  ctx->AdvanceTime(10 * kMillisecond);
  // The mutation drops the replay: acknowledged writes vanish.
  EXPECT_GT(ms_.ApplyPoolRestarts(*ctx), 0u);
  EXPECT_GT(checker.Finish(), 0u);
}

TEST_F(ChaosRecoveryTest, MutationSkipFencingIsCaught) {
  ms_.set_protocol_mutation(ddc::ProtocolMutation::kSkipFencing);
  tp::ModelChecker checker(&ms_, tp::ModelChecker::OnViolation::kRecord);
  auto caller = ms_.CreateContext(ddc::Pool::kCompute);
  inj_.ScheduleCrashRestart(caller->now() + 100, /*down_for=*/200);

  const Status st = Touch(*caller);
  EXPECT_TRUE(st.ok()) << st;                // the call still "works" ...
  EXPECT_EQ(runtime_.fenced_rpcs(), 0u);     // ... because nothing fenced it
  EXPECT_GT(checker.Finish(), 0u);           // but the stale lease is caught
}

TEST_F(ChaosRecoveryTest, MutationReplayDuplicateIsCaught) {
  ms_.set_protocol_mutation(ddc::ProtocolMutation::kReplayDuplicate);
  net::FaultSpec dup;
  dup.dup_p = 1.0;
  inj_.SetSpec(net::MessageKind::kPushdownRequest, dup);

  tp::ModelChecker checker(&ms_, tp::ModelChecker::OnViolation::kRecord);
  auto caller = ms_.CreateContext(ddc::Pool::kCompute);
  const Status st = Touch(*caller);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_GT(checker.Finish(), 0u);  // the duplicate re-applied
}

// --- Journal switch. -----------------------------------------------------

TEST(JournalKnobTest, OffByDefault) {
  ddc::MemorySystem ms(Config(), sim::CostParams::Default(), 16 << 20);
  EXPECT_FALSE(ms.journal_enabled());  // off by default: lossy legacy mode
}

// --- Property: N consecutive crash-restart windows. ----------------------

struct WindowFixture {
  ddc::MemorySystem ms;
  net::FaultInjector inj;
  ddc::VAddr data = 0;

  explicit WindowFixture(bool journal_on)
      : ms(Config(), sim::CostParams::Default(), 32 << 20), inj(/*seed=*/11) {
    data = ms.space().Alloc(64 * kPage, "d");
    ms.SeedData();
    ms.set_journal_enabled(journal_on);
    ms.fabric().set_fault_injector(&inj);
  }

  void Dirty(ddc::ExecutionContext& ctx) {
    for (uint64_t p = 0; p < 64; ++p) {
      ctx.Store<int64_t>(data + p * kPage, static_cast<int64_t>(p) + 1);
    }
  }
};

constexpr int kWindows = 4;

// All N windows pass before anyone polls: one batched apply advances the
// epoch by N but counts each loss (or replays the journal) exactly once.
TEST(PoolRestartPropertyTest, BatchedWindowsCountEachLossOnce) {
  for (const bool journal_on : {false, true}) {
    SCOPED_TRACE(journal_on ? "journal on" : "journal off");
    WindowFixture f(journal_on);
    auto ctx = f.ms.CreateContext(ddc::Pool::kCompute);
    f.Dirty(*ctx);
    const uint64_t live = f.ms.journal().live_records();
    for (int w = 0; w < kWindows; ++w) {
      f.inj.ScheduleCrashRestart((w + 1) * 5 * kMillisecond,
                                 /*down_for=*/1 * kMillisecond);
    }
    ctx->AdvanceTime(kWindows * 5 * kMillisecond + 5 * kMillisecond);

    const ddc::MemorySystem::RestartOutcome out =
        f.ms.ApplyPoolRestartsAt(*ctx, ctx->now());
    EXPECT_EQ(f.ms.pool_restarts_applied(), kWindows);
    EXPECT_EQ(f.ms.pool_epoch(), 1u + kWindows);
    if (journal_on) {
      EXPECT_GT(live, 0u);
      EXPECT_EQ(out.lost, 0u);
      EXPECT_EQ(out.recovered, live);
    } else {
      EXPECT_EQ(live, 0u);
      EXPECT_GT(out.lost, 0u);
      EXPECT_EQ(out.recovered, 0u);
    }
    // Exactly once: an immediate re-poll finds nothing new to apply.
    const ddc::MemorySystem::RestartOutcome again =
        f.ms.ApplyPoolRestartsAt(*ctx, ctx->now());
    EXPECT_EQ(again.lost, 0u);
    EXPECT_EQ(again.recovered, 0u);
    EXPECT_EQ(f.ms.pool_epoch(), 1u + kWindows);
  }
}

// Accesses between the windows re-dirty the pool: journal off loses writes
// in every window; journal on recovers them in every window and never
// loses one.
TEST(PoolRestartPropertyTest, InterveningAccessesLoseOrRecoverPerWindow) {
  for (const bool journal_on : {false, true}) {
    SCOPED_TRACE(journal_on ? "journal on" : "journal off");
    WindowFixture f(journal_on);
    auto ctx = f.ms.CreateContext(ddc::Pool::kCompute);
    for (int w = 0; w < kWindows; ++w) {
      f.inj.ScheduleCrashRestart((w + 1) * 5 * kMillisecond,
                                 /*down_for=*/1 * kMillisecond);
    }
    for (int w = 0; w < kWindows; ++w) {
      SCOPED_TRACE("window " + std::to_string(w));
      f.Dirty(*ctx);
      const Nanos target = (w + 1) * 5 * kMillisecond + 2 * kMillisecond;
      ASSERT_LT(ctx->now(), target);
      ctx->AdvanceTime(target - ctx->now());
      const ddc::MemorySystem::RestartOutcome out =
          f.ms.ApplyPoolRestartsAt(*ctx, ctx->now());
      EXPECT_EQ(f.ms.pool_restarts_applied(), w + 1);
      EXPECT_EQ(f.ms.pool_epoch(), 2u + static_cast<uint64_t>(w));
      if (journal_on) {
        EXPECT_EQ(out.lost, 0u);
        EXPECT_GT(out.recovered, 0u);
      } else {
        EXPECT_GT(out.lost, 0u);
      }
    }
    if (journal_on) {
      EXPECT_EQ(f.ms.lost_pool_writes(), 0u);
      EXPECT_GT(f.ms.recovered_pool_writes(), 0u);
    } else {
      EXPECT_GT(f.ms.lost_pool_writes(), 0u);
      EXPECT_EQ(f.ms.recovered_pool_writes(), 0u);
    }
  }
}

}  // namespace
}  // namespace teleport
