#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ddc/memory_system.h"
#include "rack/traffic.h"
#include "sim/clock.h"
#include "sim/coop_task.h"
#include "sim/cost_model.h"
#include "sim/explorer.h"
#include "sim/interleaver.h"

namespace teleport::sim {
namespace {

using ddc::VAddr;

class TickTask : public Task {
 public:
  TickTask(int id, Nanos quantum, int steps, std::vector<int>* log)
      : id_(id), quantum_(quantum), steps_(steps), log_(log) {}

  Nanos clock() const override { return clock_.now(); }
  bool done() const override { return steps_ == 0; }
  void Step() override {
    if (log_ != nullptr) log_->push_back(id_);
    clock_.Advance(quantum_);
    --steps_;
  }

 private:
  int id_;
  Nanos quantum_;
  int steps_;
  std::vector<int>* log_;
  VirtualClock clock_;
};

// --- Schedule policies -------------------------------------------------------

TEST(ScheduleTest, ExplicitSmallestClockMatchesDefault) {
  auto run = [](Schedule* s) {
    std::vector<int> log;
    TickTask a(0, 7, 13, &log);
    TickTask b(1, 11, 9, &log);
    TickTask c(2, 3, 20, &log);
    Interleaver il;
    il.Add(&a);
    il.Add(&b);
    il.Add(&c);
    il.set_schedule(s);
    il.Run();
    return log;
  };
  SmallestClockSchedule sc;
  EXPECT_EQ(run(nullptr), run(&sc));
}

TEST(ScheduleTest, RandomScheduleSameSeedReplaysBitIdentically) {
  auto run = [](uint64_t seed) {
    std::vector<int> log;
    TickTask a(0, 7, 20, &log);
    TickTask b(1, 11, 20, &log);
    RandomSchedule rs(seed);
    Interleaver il;
    il.Add(&a);
    il.Add(&b);
    il.set_schedule(&rs);
    il.Run();
    return log;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(ScheduleTest, RandomScheduleSeedsProduceManyDistinctOrders) {
  std::set<std::string> seen;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    std::vector<int> log;
    TickTask a(0, 1, 12, &log);
    TickTask b(1, 1, 12, &log);
    RandomSchedule rs(seed);
    Interleaver il;
    il.Add(&a);
    il.Add(&b);
    il.set_schedule(&rs);
    il.set_record_trace(true);
    il.Run();
    seen.insert(TraceToString(il.trace()));
  }
  // 2^24 possible orders; 64 seeds colliding would mean a broken RNG.
  EXPECT_GE(seen.size(), 60u);
}

TEST(ScheduleTest, TraceRoundTripsThroughText) {
  const std::vector<uint32_t> trace = {0, 1, 1, 0, 2, 1, 0};
  EXPECT_EQ(TraceToString(trace), "0,1,1,0,2,1,0");
  EXPECT_EQ(TraceFromString("0,1,1,0,2,1,0"), trace);
  EXPECT_TRUE(TraceFromString("").empty());
}

TEST(ScheduleTest, RecordedTraceReplaysTheExactInterleaving) {
  std::vector<int> log1;
  std::vector<uint32_t> trace;
  {
    TickTask a(0, 7, 15, &log1);
    TickTask b(1, 11, 15, &log1);
    RandomSchedule rs(99);
    Interleaver il;
    il.Add(&a);
    il.Add(&b);
    il.set_schedule(&rs);
    il.set_record_trace(true);
    il.Run();
    trace = il.trace();
  }
  std::vector<int> log2;
  {
    TickTask a(0, 7, 15, &log2);
    TickTask b(1, 11, 15, &log2);
    ReplaySchedule replay(trace);
    Interleaver il;
    il.Add(&a);
    il.Add(&b);
    il.set_schedule(&replay);
    il.Run();
    EXPECT_EQ(replay.divergences(), 0u);
  }
  EXPECT_EQ(log1, log2);
}

TEST(ScheduleTest, ReplayCountsDivergenceOnEditedScenario) {
  // Trace recorded against a longer task 1 than the replay scenario has.
  std::vector<int> log;
  TickTask a(0, 1, 8, &log);
  TickTask b(1, 1, 2, &log);
  ReplaySchedule replay(TraceFromString("1,1,1,1,0,0,0,0,0,0"));
  Interleaver il;
  il.Add(&a);
  il.Add(&b);
  il.set_schedule(&replay);
  il.Run();
  EXPECT_TRUE(a.done());
  EXPECT_TRUE(b.done());
  EXPECT_GT(replay.divergences(), 0u);
}

// --- DFS explorer ------------------------------------------------------------

/// Two independent counters; the interesting property is only the schedule
/// count, which must be C(a_steps + b_steps, a_steps).
class TwoTaskScenario : public ExplorationScenario {
 public:
  TwoTaskScenario(int a_steps, int b_steps, std::set<std::string>* traces)
      : a_(0, 10, a_steps, nullptr), b_(1, 10, b_steps, nullptr),
        traces_(traces) {}

  std::vector<Task*> tasks() override { return {&a_, &b_}; }
  void OnComplete(const std::vector<uint32_t>& trace) override {
    if (traces_ != nullptr) traces_->insert(TraceToString(trace));
  }

 private:
  TickTask a_, b_;
  std::set<std::string>* traces_;
};

TEST(DfsExplorerTest, EnumeratesAllInterleavingsOfTwoTasks) {
  std::set<std::string> traces;
  DfsExplorer::Options opts;
  const DfsExplorer::Stats stats = DfsExplorer::Explore(
      [&traces] { return std::make_unique<TwoTaskScenario>(3, 3, &traces); },
      opts);
  // C(6,3) = 20 distinct interleavings of 3 steps of A with 3 of B.
  EXPECT_EQ(stats.schedules_run, 20u);
  EXPECT_EQ(traces.size(), 20u);
  EXPECT_FALSE(stats.truncated);
  // Lexicographically first and last schedules are present.
  EXPECT_TRUE(traces.count("0,0,0,1,1,1"));
  EXPECT_TRUE(traces.count("1,1,1,0,0,0"));
}

TEST(DfsExplorerTest, AsymmetricTaskLengths) {
  const DfsExplorer::Stats stats = DfsExplorer::Explore(
      [] { return std::make_unique<TwoTaskScenario>(2, 4, nullptr); },
      DfsExplorer::Options{});
  EXPECT_EQ(stats.schedules_run, 15u);  // C(6,2)
}

TEST(DfsExplorerTest, MaxSchedulesBoundTruncates) {
  DfsExplorer::Options opts;
  opts.max_schedules = 7;
  const DfsExplorer::Stats stats = DfsExplorer::Explore(
      [] { return std::make_unique<TwoTaskScenario>(3, 3, nullptr); }, opts);
  EXPECT_EQ(stats.schedules_run, 7u);
  EXPECT_TRUE(stats.truncated);
}

TEST(DfsExplorerTest, MaxStepsBoundTruncates) {
  DfsExplorer::Options opts;
  opts.max_steps = 4;  // schedules need 6 steps
  const DfsExplorer::Stats stats = DfsExplorer::Explore(
      [] { return std::make_unique<TwoTaskScenario>(3, 3, nullptr); }, opts);
  EXPECT_EQ(stats.schedules_run, 0u);
  EXPECT_TRUE(stats.truncated);
}

/// Scenario whose state is fully captured by the two progress counters, so
/// interleavings that transpose to the same point are equivalent and the
/// visited-state hash collapses the lattice: the explorer should execute
/// far fewer than C(2k, k) schedules while still covering every state.
class CountingScenario : public ExplorationScenario {
 public:
  CountingScenario(int a_steps, int b_steps, uint64_t* completes)
      : a_(0, 10, a_steps, &log_), b_(1, 10, b_steps, &log_),
        completes_(completes) {}

  std::vector<Task*> tasks() override { return {&a_, &b_}; }
  uint64_t StateHash() override {
    uint64_t a_done = 0, b_done = 0;
    for (int id : log_) (id == 0 ? a_done : b_done)++;
    return a_done * 64 + b_done;
  }
  void OnComplete(const std::vector<uint32_t>&) override {
    if (completes_ != nullptr) ++*completes_;
  }

 private:
  std::vector<int> log_;
  TickTask a_, b_;
  uint64_t* completes_ = nullptr;
};

TEST(DfsExplorerTest, VisitedStateHashingPrunesEquivalentPrefixes) {
  DfsExplorer::Options opts;
  opts.prune_visited = true;
  uint64_t completes = 0;
  const DfsExplorer::Stats stats = DfsExplorer::Explore(
      [&completes] {
        return std::make_unique<CountingScenario>(4, 4, &completes);
      },
      opts);
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.prunes, 0u);
  // The 5x5 progress lattice has 25 states, minus the terminal corner which
  // is never hashed (completion is detected before the next decision).
  EXPECT_EQ(stats.states_visited, 24u);
  // Far fewer complete schedules than the unpruned C(8,4) = 70.
  EXPECT_EQ(completes, stats.schedules_run);
  EXPECT_LT(stats.schedules_run, 70u);
  EXPECT_GE(stats.schedules_run, 1u);
}

// --- CoopTask ----------------------------------------------------------------

sim::CostParams TestParams() {
  sim::CostParams p;
  p.page_size = 4096;
  return p;
}

ddc::DdcConfig TestConfig() {
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_cache_bytes = 16 * 4096;
  cfg.memory_pool_bytes = 1 << 20;
  return cfg;
}

TEST(CoopTaskTest, RunsBodyToCompletionUnderInterleaver) {
  ddc::MemorySystem ms(TestConfig(), TestParams(), 64 * 4096);
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  ms.space().Alloc(8 * 4096, "data");
  ms.SeedData();
  uint64_t sum = 0;
  CoopTask task({ctx.get()}, [&] {
    for (VAddr a = 0; a < 8 * 4096; a += 8) {
      ctx->Store<uint64_t>(a, a);
    }
    for (VAddr a = 0; a < 8 * 4096; a += 8) {
      sum += ctx->Load<uint64_t>(a);
    }
  });
  Interleaver il;
  il.Add(&task);
  const Nanos end = il.Run();
  EXPECT_TRUE(task.done());
  EXPECT_GT(end, 0);
  uint64_t expect = 0;
  for (VAddr a = 0; a < 8 * 4096; a += 8) expect += a;
  EXPECT_EQ(sum, expect);
}

TEST(CoopTaskTest, TwoBodiesInterleaveDeterministically) {
  auto run = [] {
    ddc::MemorySystem ms(TestConfig(), TestParams(), 64 * 4096);
    auto ca = ms.CreateContext(ddc::Pool::kCompute);
    auto cb = ms.CreateContext(ddc::Pool::kCompute);
    ms.space().Alloc(16 * 4096, "data");
    ms.SeedData();
    CoopTask ta({ca.get()}, [&] {
      for (VAddr a = 0; a < 4 * 4096; a += 64) ca->Store<uint64_t>(a, 1);
    });
    CoopTask tb({cb.get()}, [&] {
      for (VAddr a = 8 * 4096; a < 12 * 4096; a += 64) {
        cb->Store<uint64_t>(a, 2);
      }
    });
    Interleaver il;
    il.Add(&ta);
    il.Add(&tb);
    il.set_record_trace(true);
    il.Run();
    return TraceToString(il.trace());
  };
  const std::string t1 = run();
  EXPECT_EQ(t1, run());
  EXPECT_GT(t1.size(), 0u);
}

TEST(CoopTaskTest, AbandonedTaskUnwindsCleanly) {
  ddc::MemorySystem ms(TestConfig(), TestParams(), 64 * 4096);
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  ms.space().Alloc(8 * 4096, "data");
  ms.SeedData();
  bool finished = false;
  {
    CoopTask task({ctx.get()}, [&] {
      for (VAddr a = 0; a < 8 * 4096; a += 8) ctx->Store<uint64_t>(a, a);
      finished = true;
    });
    Interleaver il;
    il.Add(&task);
    il.RunUntil(1);  // a slice, then abandon the task mid-body
  }  // destructor unwinds the parked body
  EXPECT_FALSE(finished);
}

struct RackOutcome {
  std::vector<uint64_t> digests;
  std::vector<Nanos> clocks;
  std::vector<std::string> metrics;
  std::vector<uint32_t> trace;
  Nanos makespan = 0;
  Interleaver::ParCounters par;
};

/// n CoopTasks on an n x n rack, task t on compute node t running rack
/// kernels over its own slice. `explicit_schedule` installs
/// SmallestClockSchedule, which dispatches one quantum per handoff: the
/// unbatched reference for the default path's StepBatch.
RackOutcome RunDiagonalRack(int n, bool explicit_schedule) {
  constexpr uint64_t kPage = 4096;
  constexpr uint64_t kSlicePages = 16;
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_nodes = n;
  cfg.memory_shards = n;
  cfg.compute_cache_bytes = 8 * kPage;
  cfg.memory_pool_bytes = 64ULL * kPage * static_cast<uint64_t>(n);
  ddc::MemorySystem ms(cfg, CostParams::Default(),
                       static_cast<uint64_t>(n) * kSlicePages * kPage);
  std::vector<VAddr> slices;
  for (int t = 0; t < n; ++t) {
    slices.push_back(
        ms.space().Alloc(kSlicePages * kPage, "slice" + std::to_string(t)));
  }
  ms.SeedData();

  RackOutcome out;
  out.digests.assign(static_cast<size_t>(n), 0);
  std::vector<std::unique_ptr<ddc::ExecutionContext>> ctxs;
  std::vector<std::unique_ptr<CoopTask>> tasks;
  Interleaver il;
  SmallestClockSchedule reference;
  for (int t = 0; t < n; ++t) {
    ctxs.push_back(ms.CreateContext(ddc::Pool::kCompute, t, t));
    ddc::ExecutionContext* ctx = ctxs.back().get();
    const VAddr slice = slices[static_cast<size_t>(t)];
    uint64_t* digest = &out.digests[static_cast<size_t>(t)];
    tasks.push_back(std::make_unique<CoopTask>(
        std::vector<ddc::ExecutionContext*>{ctx},
        [ctx, slice, t, digest] {
          for (int r = 0; r < 3; ++r) {
            const auto kind = static_cast<rack::WorkloadKind>((t + r) % 4);
            *digest += rack::RunKernel(*ctx, kind, slice, kSlicePages * kPage,
                                       /*ops=*/300, 77 + 13 * t + r);
          }
        },
        /*quantum=*/4));
    il.Add(tasks.back().get());
  }
  if (explicit_schedule) il.set_schedule(&reference);
  il.set_record_trace(true);
  out.makespan = il.Run();
  out.par = il.par_counters();
  out.trace = il.trace();
  for (const auto& ctx : ctxs) {
    out.clocks.push_back(ctx->now());
    out.metrics.push_back(ctx->metrics().ToString());
  }
  return out;
}

TEST(CoopTaskTest, BatchedSerialMatchesUnbatchedReferenceExactly) {
  // StepBatch's handoff elision must reproduce the explicit
  // SmallestClockSchedule run, per-quantum schedule trace included.
  for (const int n : {2, 4}) {
    const RackOutcome ref = RunDiagonalRack(n, /*explicit_schedule=*/true);
    const RackOutcome batched = RunDiagonalRack(n, /*explicit_schedule=*/false);
    EXPECT_EQ(ref.digests, batched.digests) << "n=" << n;
    EXPECT_EQ(ref.clocks, batched.clocks) << "n=" << n;
    EXPECT_EQ(ref.metrics, batched.metrics) << "n=" << n;
    EXPECT_EQ(ref.makespan, batched.makespan) << "n=" << n;
    EXPECT_EQ(ref.trace, batched.trace) << "n=" << n;
    EXPECT_GT(batched.par.batched_quanta, 0u) << "n=" << n;
    // Every elided quantum is a saved park/unpark round trip.
    EXPECT_EQ(ref.par.handoff_waits,
              batched.par.handoff_waits + batched.par.batched_quanta)
        << "n=" << n;
  }
}

}  // namespace
}  // namespace teleport::sim
