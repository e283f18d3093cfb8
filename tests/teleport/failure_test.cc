// Failure-injection tests for the §3.2 failure story: heartbeat detection,
// the panic latch (main memory is lost once the pool is unreachable), kill
// timeouts for buggy functions, and exception transport.

#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "teleport/pushdown.h"

namespace teleport::tp {
namespace {

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
  c.compute_cache_bytes = 16 * kPage;
  c.memory_pool_bytes = 1024 * kPage;
  return c;
}

class FailureTest : public ::testing::Test {
 protected:
  FailureTest()
      : ms_(Config(), sim::CostParams::Default(), 32 << 20), runtime_(&ms_) {
    data_ = ms_.space().Alloc(64 * kPage, "d");
    ms_.SeedData();
  }

  Status Touch(ExecutionContext& caller) {
    return runtime_.Call(caller, [&](ExecutionContext& mc) {
      (void)mc.Load<int64_t>(data_);
      return Status::OK();
    });
  }

  MemorySystem ms_;
  PushdownRuntime runtime_;
  VAddr data_;
};

TEST_F(FailureTest, FailureWindowHitsCallsInsideIt) {
  ms_.fabric().InjectFailureWindowOn(0, 5 * kMillisecond);
  auto caller = ms_.CreateContext(Pool::kCompute);
  // Before the window: fine.
  EXPECT_TRUE(Touch(*caller).ok());
  // Move into the window.
  caller->AdvanceTime(10 * kMillisecond);
  EXPECT_TRUE(Touch(*caller).IsUnavailable());
}

TEST_F(FailureTest, PanicLatchesForever) {
  ms_.fabric().InjectFailureWindowOn(0, 0);
  auto caller = ms_.CreateContext(Pool::kCompute);
  EXPECT_TRUE(Touch(*caller).IsUnavailable());
  EXPECT_TRUE(runtime_.panicked());
  // Even once the fabric no longer reports the failure, the runtime stays
  // down — the paper's semantics: once the pool is lost, main memory is
  // lost.
  ms_.fabric().Reset();
  EXPECT_FALSE(ms_.fabric().HardDownAt(caller->now()));
  EXPECT_TRUE(Touch(*caller).IsUnavailable());
  EXPECT_TRUE(runtime_.CheckHeartbeat(*caller).IsUnavailable());
}

TEST_F(FailureTest, HeartbeatDetectsBeforeAnyPushdown) {
  ms_.fabric().InjectFailureWindowOn(0, 0);
  auto caller = ms_.CreateContext(Pool::kCompute);
  EXPECT_TRUE(runtime_.CheckHeartbeat(*caller).IsUnavailable());
  EXPECT_TRUE(runtime_.panicked());
}

TEST_F(FailureTest, PermanentFailureHasNoEnd) {
  ms_.fabric().InjectFailureWindowOn(0, 2 * kMillisecond);
  auto caller = ms_.CreateContext(Pool::kCompute);
  EXPECT_TRUE(Touch(*caller).ok());
  caller->AdvanceTime(10 * kMillisecond);
  EXPECT_TRUE(Touch(*caller).IsUnavailable());
}

TEST_F(FailureTest, HealthySystemNeverPanics) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Touch(*caller).ok());
    ASSERT_TRUE(runtime_.CheckHeartbeat(*caller).ok());
  }
  EXPECT_FALSE(runtime_.panicked());
}

TEST_F(FailureTest, BuggyFunctionKilledOthersProceed) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  const Status st = runtime_.Call(*caller, [](ExecutionContext& mc) {
    mc.AdvanceTime(PushdownRuntime::kKillTimeoutNs + 1);  // runaway
    return Status::OK();
  });
  EXPECT_TRUE(st.IsFault());
  EXPECT_FALSE(runtime_.panicked());  // a killed fn is not a pool failure
  // The workqueue is unblocked: the next call succeeds.
  EXPECT_TRUE(Touch(*caller).ok());
}

TEST_F(FailureTest, ExceptionDoesNotPoisonTheSession) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  EXPECT_THROW(
      {
        (void)runtime_.Call(*caller, [](ExecutionContext&) -> Status {
          throw std::runtime_error("segfault analog");
        });
      },
      std::runtime_error);
  // The temporary context was recycled and coherence state cleared.
  EXPECT_FALSE(ms_.pushdown_active());
  EXPECT_TRUE(Touch(*caller).ok());
}

TEST_F(FailureTest, ErrorStatusAlsoEndsTheSessionCleanly) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  const Status st = runtime_.Call(*caller, [](ExecutionContext&) {
    return Status::InvalidArgument("bad arg vector");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ms_.pushdown_active());
  EXPECT_TRUE(Touch(*caller).ok());
}

TEST_F(FailureTest, FabricResetClearsInjection) {
  ms_.fabric().InjectFailureWindowOn(0, 0);
  EXPECT_NE(ms_.fabric().NextReachableAt(1), 1);
  ms_.fabric().Reset();
  EXPECT_EQ(ms_.fabric().NextReachableAt(1), 1);
}

}  // namespace
}  // namespace teleport::tp
