#include "teleport/pushdown.h"

#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/rle.h"
#include "sim/interleaver.h"

namespace teleport::tp {
namespace {

using ddc::DdcConfig;
using ddc::ExecutionContext;
using ddc::MemorySystem;
using ddc::Platform;
using ddc::Pool;
using ddc::VAddr;

constexpr uint64_t kPage = 4096;

DdcConfig SmallDdc() {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 8 * kPage;
  c.memory_pool_bytes = 1024 * kPage;
  return c;
}

struct SumArgs {
  VAddr data;
  uint64_t count;
  int64_t result;
};

Status SumFn(ExecutionContext& ctx, void* arg) {
  auto* a = static_cast<SumArgs*>(arg);
  int64_t sum = 0;
  for (uint64_t i = 0; i < a->count; ++i) {
    sum += ctx.Load<int64_t>(a->data + i * 8);
    ctx.ChargeCpu(1);
  }
  a->result = sum;
  return Status::OK();
}

class PushdownTest : public ::testing::Test {
 protected:
  PushdownTest()
      : ms_(SmallDdc(), sim::CostParams::Default(), 64 << 20),
        runtime_(&ms_) {}

  VAddr MakeData(uint64_t count) {
    const VAddr a = ms_.space().Alloc(count * 8, "data");
    auto* p = static_cast<int64_t*>(ms_.space().HostPtr(a, count * 8));
    for (uint64_t i = 0; i < count; ++i) p[i] = static_cast<int64_t>(i);
    ms_.SeedData();
    return a;
  }

  MemorySystem ms_;
  PushdownRuntime runtime_;
};

TEST_F(PushdownTest, ExecutesFunctionWithCorrectResult) {
  const VAddr a = MakeData(10000);
  auto caller = ms_.CreateContext(Pool::kCompute);
  SumArgs args{a, 10000, 0};
  const Status st = runtime_.Pushdown(*caller, SumFn, &args);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(args.result, 10000LL * 9999 / 2);
  EXPECT_EQ(runtime_.completed_calls(), 1u);
  EXPECT_EQ(caller->metrics().pushdown_calls, 1u);
}

TEST_F(PushdownTest, CallerClockAdvancesPastAllPhases) {
  const VAddr a = MakeData(10000);
  auto caller = ms_.CreateContext(Pool::kCompute);
  SumArgs args{a, 10000, 0};
  ASSERT_TRUE(runtime_.Pushdown(*caller, SumFn, &args).ok());
  const PushdownBreakdown& bd = runtime_.last_breakdown();
  EXPECT_GE(caller->now(), bd.Total() - bd.pre_sync_ns);
  EXPECT_GT(bd.context_setup_ns, 0);
  EXPECT_GT(bd.function_exec_ns, 0);
  EXPECT_GT(bd.request_transfer_ns, 0);
  EXPECT_GT(bd.response_transfer_ns, 0);
}

TEST_F(PushdownTest, PushedScanAvoidsRemoteTransfers) {
  // The whole point of TELEPORT: the pushed function reads pool-resident
  // data locally, so no page crosses the fabric during execution.
  const VAddr a = MakeData(100000);
  auto caller = ms_.CreateContext(Pool::kCompute);
  SumArgs args{a, 100000, 0};
  ASSERT_TRUE(runtime_.Pushdown(*caller, SumFn, &args).ok());
  EXPECT_EQ(caller->metrics().bytes_from_memory_pool, 0u);
  EXPECT_GT(caller->metrics().memory_pool_hits, 0u);
}

TEST_F(PushdownTest, PushdownBeatsRemoteScanForLargeData) {
  // Same scan executed (a) from the compute pool over the cold cache and
  // (b) pushed down. Pushdown must win by a large factor (Fig 12/13).
  const uint64_t count = 500000;  // ~4 MiB >> 32 KiB cache
  const VAddr a = MakeData(count);
  auto remote = ms_.CreateContext(Pool::kCompute);
  SumArgs args{a, count, 0};
  ASSERT_TRUE(SumFn(*remote, &args).ok());
  const Nanos remote_time = remote->now();
  EXPECT_EQ(args.result, static_cast<int64_t>(count * (count - 1) / 2));

  // Fresh system for the pushdown run (cold state again).
  MemorySystem ms2(SmallDdc(), sim::CostParams::Default(), 64 << 20);
  const VAddr a2 = ms2.space().Alloc(count * 8, "data");
  auto* p = static_cast<int64_t*>(ms2.space().HostPtr(a2, count * 8));
  for (uint64_t i = 0; i < count; ++i) p[i] = static_cast<int64_t>(i);
  ms2.SeedData();
  PushdownRuntime rt2(&ms2);
  auto caller = ms2.CreateContext(Pool::kCompute);
  SumArgs args2{a2, count, 0};
  ASSERT_TRUE(rt2.Pushdown(*caller, SumFn, &args2).ok());
  EXPECT_EQ(args2.result, args.result);
  EXPECT_LT(caller->now() * 3, remote_time);
}

TEST_F(PushdownTest, ErrorStatusPropagates) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  PushdownFn failing = [](ExecutionContext&, void*) -> Status {
    return Status::InvalidArgument("bad plan fragment");
  };
  const Status st = runtime_.Pushdown(*caller, failing, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(PushdownTest, ExceptionRethrownAtCaller) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  EXPECT_THROW(
      {
        (void)runtime_.Call(*caller, [](ExecutionContext&) -> Status {
          throw std::runtime_error("segfault analog");
        });
      },
      std::runtime_error);
}

TEST_F(PushdownTest, CallWrapperReturnsStatusWithoutException) {
  MakeData(16);
  auto caller = ms_.CreateContext(Pool::kCompute);
  const Status st = runtime_.Call(*caller, [](ExecutionContext& ctx) {
    ctx.ChargeCpu(100);
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
}

TEST_F(PushdownTest, UnreachablePoolReturnsUnavailable) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  ms_.fabric().InjectFailureWindowOn(0, 0);  // the pool is lost for good
  SumArgs args{0, 0, 0};
  EXPECT_TRUE(runtime_.Pushdown(*caller, SumFn, &args).IsUnavailable());
  EXPECT_TRUE(runtime_.CheckHeartbeat(*caller).IsUnavailable());
}

TEST_F(PushdownTest, HeartbeatOkWhenReachable) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  EXPECT_TRUE(runtime_.CheckHeartbeat(*caller).ok());
  EXPECT_GT(caller->now(), 0);
}

TEST_F(PushdownTest, KillTimeoutAbortsBuggyFunction) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  const Status st = runtime_.Call(*caller, [](ExecutionContext& ctx) {
    ctx.AdvanceTime(PushdownRuntime::kKillTimeoutNs + 1);  // "infinite loop"
    return Status::OK();
  });
  EXPECT_TRUE(st.IsFault());
}

TEST_F(PushdownTest, FunctionThatEndsOnTheKillTimeoutIsNotKilled) {
  auto caller = ms_.CreateContext(Pool::kCompute);
  const Status st = runtime_.Call(*caller, [](ExecutionContext& ctx) {
    ctx.AdvanceTime(PushdownRuntime::kKillTimeoutNs);
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
}

TEST_F(PushdownTest, TimeoutCancelsQueuedRequest) {
  MakeData(1024);
  // Occupy the single instance with a long request from thread A.
  auto a = ms_.CreateContext(Pool::kCompute);
  ASSERT_TRUE(runtime_
                  .Call(*a,
                        [](ExecutionContext& ctx) {
                          ctx.AdvanceTime(50 * kMillisecond);
                          return Status::OK();
                        })
                  .ok());
  // Thread B (clock at 0) now queues behind ~50ms of work; with a 1ms
  // timeout the try_cancel succeeds.
  auto b = ms_.CreateContext(Pool::kCompute);
  PushdownFlags flags;
  flags.timeout_ns = 1 * kMillisecond;
  const Status st = runtime_.Call(
      *b, [](ExecutionContext&) { return Status::OK(); }, flags);
  EXPECT_TRUE(st.IsTimedOut());
  EXPECT_EQ(runtime_.cancelled_calls(), 1u);
  // B is free again shortly after its timeout, not after A's 50ms.
  EXPECT_LT(b->now(), 10 * kMillisecond);
}

TEST_F(PushdownTest, RunningRequestDeclinesCancel) {
  MakeData(1024);
  auto caller = ms_.CreateContext(Pool::kCompute);
  PushdownFlags flags;
  flags.timeout_ns = 1 * kMillisecond;
  // The request starts immediately (no queue), so the timeout cannot cancel
  // it; the caller waits for the full 20ms execution (§3.2).
  const Status st = runtime_.Call(
      *caller,
      [](ExecutionContext& ctx) {
        ctx.AdvanceTime(20 * kMillisecond);
        return Status::OK();
      },
      flags);
  EXPECT_TRUE(st.ok());
  EXPECT_GE(caller->now(), 20 * kMillisecond);
}

TEST_F(PushdownTest, ConcurrentRequestsSerializeOnOneInstance) {
  MakeData(1024);
  auto a = ms_.CreateContext(Pool::kCompute);
  auto b = ms_.CreateContext(Pool::kCompute);
  auto work = [](ExecutionContext& ctx) {
    ctx.AdvanceTime(5 * kMillisecond);
    return Status::OK();
  };
  ASSERT_TRUE(runtime_.Call(*a, work).ok());
  ASSERT_TRUE(runtime_.Call(*b, work).ok());
  // B queued behind A's 5ms on the single instance.
  EXPECT_GE(b->now(), 10 * kMillisecond);
  EXPECT_GT(runtime_.last_breakdown().queue_wait_ns, 0);
}

TEST_F(PushdownTest, TwoInstancesOverlapRequests) {
  MemorySystem ms2(SmallDdc(), sim::CostParams::Default(), 64 << 20);
  ms2.space().Alloc(kPage, "d");
  ms2.SeedData();
  PushdownRuntime rt2(&ms2, /*num_instances=*/2);
  auto a = ms2.CreateContext(Pool::kCompute);
  auto b = ms2.CreateContext(Pool::kCompute);
  auto work = [](ExecutionContext& ctx) {
    ctx.AdvanceTime(5 * kMillisecond);
    return Status::OK();
  };
  ASSERT_TRUE(rt2.Call(*a, work).ok());
  ASSERT_TRUE(rt2.Call(*b, work).ok());
  EXPECT_LT(b->now(), 10 * kMillisecond);  // ran in parallel with A
}

TEST_F(PushdownTest, PageListCompressionIsHigh) {
  // Fill the cache with contiguous pages; the RLE'd resident list must
  // compress far better than 20x (§6).
  const VAddr a = MakeData(8 * kPage / 8);
  auto caller = ms_.CreateContext(Pool::kCompute);
  for (int p = 0; p < 8; ++p) caller->Load<int64_t>(a + p * kPage);
  SumArgs args{a, 16, 0};
  ASSERT_TRUE(runtime_.Pushdown(*caller, SumFn, &args).ok());
  EXPECT_GT(runtime_.last_page_list_compression(), 2.0);
}

TEST_F(PushdownTest, OnDemandWithoutCoherenceSendsNoResidentList) {
  // A warm cache: eight resident pages, half of them written.
  const VAddr a = MakeData(8 * kPage / 8);
  auto caller = ms_.CreateContext(Pool::kCompute);
  for (int p = 0; p < 8; ++p) {
    if (p % 2 == 0) {
      caller->Store<int64_t>(a + p * kPage, p);
    } else {
      (void)caller->Load<int64_t>(a + p * kPage);
    }
  }
  const std::vector<PageEntry> resident = ms_.ResidentPages();
  ASSERT_EQ(resident.size(), 8u);
  const sim::CostParams& params = ms_.params();
  const auto body = [](ExecutionContext& ctx) {
    ctx.ChargeCpu(100);
    return Status::OK();
  };
  const auto request_bytes = [&] {
    return ms_.fabric().bytes_of(net::MessageKind::kPushdownRequest);
  };

  // A kNone session maps every page writable: no scan, no list, no clone.
  PushdownFlags none;
  none.coherence = ddc::CoherenceMode::kNone;
  uint64_t before = request_bytes();
  ASSERT_TRUE(runtime_.Call(*caller, body, none).ok());
  EXPECT_EQ(runtime_.last_breakdown().pre_sync_ns, 0);
  EXPECT_EQ(request_bytes() - before, kPushdownRequestBytes);
  EXPECT_EQ(runtime_.last_breakdown().context_setup_ns,
            params.context_fixed_ns);

  // Under kMesi the same call scans the list, sends it and clones a PTE
  // per entry.
  ASSERT_EQ(ms_.ResidentPages().size(), resident.size());
  const auto n = static_cast<Nanos>(resident.size());
  before = request_bytes();
  ASSERT_TRUE(runtime_.Call(*caller, body).ok());
  EXPECT_EQ(runtime_.last_breakdown().pre_sync_ns, n * params.resident_scan_ns);
  EXPECT_EQ(request_bytes() - before,
            kPushdownRequestBytes + RleSizeBytes(RleEncode(resident)));
  EXPECT_EQ(runtime_.last_breakdown().context_setup_ns,
            params.context_fixed_ns + n * params.pte_clone_ns);
}

// The stepped pushdown of the §4 microbenchmark: Begin, then the
// Interleaver runs the pushed body a batch of loads per step beside other
// simulated threads, then End in the step that finishes the body. The body
// sums the lower half of each of `pages` pages.
class SteppedSum : public sim::Task {
 public:
  SteppedSum(PushdownRuntime* runtime, ExecutionContext* caller, VAddr data,
             uint64_t pages)
      : runtime_(runtime),
        caller_(caller),
        session_(*caller),
        data_(data),
        words_(pages * kPage / 16) {}

  Nanos clock() const override {
    return body_ != nullptr && !ended_ ? body_->now() : caller_->now();
  }
  bool done() const override { return ended_; }
  void Step() override {
    if (body_ == nullptr) {
      t0_ = caller_->now();
      ASSERT_TRUE(runtime_->Begin(session_).ok());
      body_ = &session_.ctx();
      return;
    }
    for (int k = 0; k < 16 && next_ < words_; ++k, ++next_) {
      sum_ += body_->Load<int64_t>(LowerHalfWord(data_, next_));
    }
    if (next_ == words_) {
      ASSERT_TRUE(runtime_->End(session_, Status::OK()).ok());
      ended_ = true;
    }
  }

  static VAddr LowerHalfWord(VAddr data, uint64_t w) {
    return data + (w / (kPage / 16)) * kPage + (w % (kPage / 16)) * 8;
  }

  Nanos t0() const { return t0_; }
  int64_t sum() const { return sum_; }

 private:
  PushdownRuntime* runtime_;
  ExecutionContext* caller_;
  PushdownSession session_;
  VAddr data_;
  uint64_t words_;
  ExecutionContext* body_ = nullptr;
  uint64_t next_ = 0;
  Nanos t0_ = 0;
  int64_t sum_ = 0;
  bool ended_ = false;
};

/// A compute-side thread that writes the upper half of each page in turn.
class UpperHalfWriter : public sim::Task {
 public:
  UpperHalfWriter(ExecutionContext* ctx, VAddr data, uint64_t pages,
                  uint64_t writes)
      : ctx_(ctx), data_(data), pages_(pages), writes_(writes) {}

  Nanos clock() const override { return ctx_->now(); }
  bool done() const override { return next_ == writes_; }
  void Step() override {
    for (int k = 0; k < 4 && !done(); ++k, ++next_) {
      const uint64_t page = next_ % pages_;
      ctx_->Store<int64_t>(data_ + page * kPage + kPage / 2, -1);
    }
  }

 private:
  ExecutionContext* ctx_;
  VAddr data_;
  uint64_t pages_;
  uint64_t writes_;
  uint64_t next_ = 0;
};

TEST_F(PushdownTest, SessionSteppedBesideAWriterMatchesASequentialCall) {
  constexpr uint64_t kPages = 8;
  const VAddr a = MakeData(kPages * kPage / 8);
  auto caller = ms_.CreateContext(Pool::kCompute);
  auto writer_ctx = ms_.CreateContext(Pool::kCompute);
  UpperHalfWriter writer(writer_ctx.get(), a, kPages, /*writes=*/4096);
  SteppedSum pushed(&runtime_, caller.get(), a, kPages);
  sim::Interleaver il;
  il.Add(&writer);
  il.Add(&pushed);
  il.Run();

  // The writer kept dirtying pages the body read, so the body paid online
  // coherence, and the components still tile the caller's elapsed time.
  const PushdownBreakdown bd = runtime_.last_breakdown();
  EXPECT_GT(bd.online_sync_ns, 0);
  EXPECT_EQ(bd.Total(), caller->now() - pushed.t0());

  auto seq_caller = ms_.CreateContext(Pool::kCompute);
  int64_t expected = 0;
  ASSERT_TRUE(runtime_
                  .Call(*seq_caller,
                        [&](ExecutionContext& ctx) {
                          for (uint64_t w = 0; w < kPages * kPage / 16; ++w) {
                            expected += ctx.Load<int64_t>(
                                SteppedSum::LowerHalfWord(a, w));
                          }
                          return Status::OK();
                        })
                  .ok());
  EXPECT_EQ(pushed.sum(), expected);
}

TEST(InstancePoolTest, MakespanShrinksWithInstances) {
  const auto params = sim::CostParams::Default();
  const Nanos busy = 10 * kMillisecond;
  const Nanos stall = 3 * kMillisecond;
  const Nanos m1 = InstancePoolMakespan(8, busy, stall, 1, 2, params);
  const Nanos m2 = InstancePoolMakespan(8, busy, stall, 2, 2, params);
  const Nanos m4 = InstancePoolMakespan(8, busy, stall, 4, 2, params);
  EXPECT_GT(m1, m2);
  EXPECT_GE(m2, m4);
}

TEST(InstancePoolTest, SpeedupDiminishesPastPhysicalCores) {
  // Fig 17: with 2 memory-pool cores, going 2 -> 4 instances helps far less
  // than 1 -> 2 (stall overlap only), and context switching eats into it.
  const auto params = sim::CostParams::Default();
  const Nanos busy = 10 * kMillisecond;
  const Nanos stall = 3 * kMillisecond;
  const double m1 = static_cast<double>(
      InstancePoolMakespan(8, busy, stall, 1, 2, params));
  const double m2 = static_cast<double>(
      InstancePoolMakespan(8, busy, stall, 2, 2, params));
  const double m4 = static_cast<double>(
      InstancePoolMakespan(8, busy, stall, 4, 2, params));
  const double gain12 = m1 / m2;
  const double gain24 = m2 / m4;
  EXPECT_GT(gain12, 1.7);
  EXPECT_LT(gain24, gain12 / 1.5);
}

TEST(InstancePoolTest, SingleRequestUnaffectedByInstances) {
  const auto params = sim::CostParams::Default();
  const Nanos m1 = InstancePoolMakespan(1, kMillisecond, 0, 1, 2, params);
  const Nanos m4 = InstancePoolMakespan(1, kMillisecond, 0, 4, 2, params);
  EXPECT_NEAR(static_cast<double>(m1), static_cast<double>(m4),
              static_cast<double>(m1) * 0.2);
}

}  // namespace
}  // namespace teleport::tp
