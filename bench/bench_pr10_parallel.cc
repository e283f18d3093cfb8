// PR10: host-parallel simulation at bit-identical virtual time.
//
// The multi-leg figure suite (24 independent deployments) on a LegRunner
// thread pool — identical WorkloadTimes at any thread count, wall-clock
// speedup when real cores exist. Plus one rack deployment with N compute
// nodes x N memory shards and N diagonal CoopTasks (task t = node t,
// shard t) at two fleet scales (2x2 and 4x4), recording the serial
// scheduler's batched handoffs (StepBatch).
//
// Speedup gates self-calibrate to the host: this container may expose a
// single core, where parallel runs legitimately show ~1x; the floor is
// enforced only when std::thread::hardware_concurrency() provides the
// cores (or TELEPORT_PAR_FLOOR forces a value). The speedup compares each
// side's fastest of three alternating runs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ddc/memory_system.h"
#include "rack/traffic.h"
#include "sim/coop_task.h"
#include "sim/interleaver.h"

using namespace teleport;  // NOLINT

namespace {

constexpr uint64_t kPage = 4096;

// --- The figure suite as parallel legs ---------------------------------------

bench::SuiteConfig SuiteScale() {
  bench::SuiteConfig cfg;
  cfg.db_scale_factor = 1.5;
  cfg.graph_vertices = 20'000;
  cfg.graph_degree = 8;
  cfg.mr_bytes = 1 << 20;
  return cfg;
}

bool SameSuite(const std::vector<bench::WorkloadTimes>& a,
               const std::vector<bench::WorkloadTimes>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].local_ns != b[i].local_ns ||
        a[i].ddc_ns != b[i].ddc_ns || a[i].teleport_ns != b[i].teleport_ns ||
        a[i].ddc_remote_bytes != b[i].ddc_remote_bytes ||
        a[i].teleport_remote_bytes != b[i].teleport_remote_bytes ||
        !a[i].checksums_match || !b[i].checksums_match) {
      return false;
    }
  }
  return true;
}

// --- Diagonal rack under the serial scheduler -------------------------------

struct RackOutcome {
  Nanos makespan = 0;
  Nanos wall_ns = 0;
  sim::Interleaver::ParCounters par;
};

/// N tasks on an NxN rack, task t on (node t, shard t), each running
/// `rounds` rack::RunKernel passes (kinds cycling per round) over its own
/// shard-aligned slice.
RackOutcome RunDiagonalRack(int n, int rounds, int ops) {
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_nodes = n;
  cfg.memory_shards = n;
  cfg.compute_cache_bytes = 16 * kPage;
  cfg.memory_pool_bytes = 64ULL * kPage * static_cast<uint64_t>(n);
  const uint64_t slice_pages = 32;
  ddc::MemorySystem ms(cfg, sim::CostParams::Default(),
                       static_cast<uint64_t>(n) * slice_pages * kPage);
  TELEPORT_CHECK(ms.pages_per_shard() == slice_pages)
      << "slice/shard misalignment: " << ms.pages_per_shard();

  std::vector<ddc::VAddr> slices;
  for (int t = 0; t < n; ++t) {
    const ddc::VAddr s =
        ms.space().Alloc(slice_pages * kPage, "slice" + std::to_string(t));
    TELEPORT_CHECK(ms.ShardOf(ms.space().PageOf(s)) == t);
    TELEPORT_CHECK(
        ms.ShardOf(ms.space().PageOf(s + slice_pages * kPage - 1)) == t);
    slices.push_back(s);
  }
  ms.SeedData();

  RackOutcome out;
  std::vector<std::unique_ptr<ddc::ExecutionContext>> ctxs;
  std::vector<std::unique_ptr<sim::CoopTask>> tasks;
  sim::Interleaver il;
  for (int t = 0; t < n; ++t) {
    ctxs.push_back(ms.CreateContext(ddc::Pool::kCompute, /*node=*/t,
                                    /*tenant=*/t));
    ddc::ExecutionContext* ctx = ctxs.back().get();
    const ddc::VAddr slice = slices[static_cast<size_t>(t)];
    tasks.push_back(std::make_unique<sim::CoopTask>(
        std::vector<ddc::ExecutionContext*>{ctx},
        [ctx, slice, slice_pages, rounds, ops, t] {
          for (int r = 0; r < rounds; ++r) {
            const auto kind = static_cast<rack::WorkloadKind>((t + r) % 4);
            rack::RunKernel(*ctx, kind, slice, slice_pages * kPage, ops,
                            0x9e37 + 131 * t + r);
          }
        },
        /*quantum=*/8));
    il.Add(tasks.back().get());
  }
  bench::WallTimer wall;
  out.makespan = il.Run();
  out.wall_ns = wall.ElapsedNs();
  out.par = il.par_counters();
  return out;
}

double Speedup(Nanos serial_wall, Nanos parallel_wall) {
  return parallel_wall > 0
             ? static_cast<double>(serial_wall) /
                   static_cast<double>(parallel_wall)
             : 0.0;
}

/// Floor for the 8-thread suite speedup gate: TELEPORT_PAR_FLOOR when set,
/// else scaled to the visible cores (0 = skip the gate; a 1-core container
/// cannot show wall-clock parallelism, only determinism).
double SpeedupFloor() {
  const char* env = std::getenv("TELEPORT_PAR_FLOOR");
  if (env != nullptr && *env != '\0') return std::atof(env);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 8) return 3.0;
  if (hw >= 4) return 1.8;
  return 0.0;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "PR10: host-parallel simulation",
      "multi-threaded figure legs, bit-identical virtual time");
  bool ok = true;

  // --- Figure suite, 1 vs 8 host threads. ---------------------------------
  const bench::SuiteConfig scale = SuiteScale();
  bench::SuiteConfig serial_cfg = scale;
  serial_cfg.host_threads = 1;
  bench::SuiteConfig par_cfg = scale;
  par_cfg.host_threads = 8;

  // The two suites run alternately, the first one switching each round,
  // and each side counts its fastest run: other tenants of a shared host
  // only ever slow a run down, and a slow spell then hits both sides.
  // Every run must give the first run's results.
  constexpr int kRounds = 3;
  std::vector<bench::WorkloadTimes> suite_t1;
  Nanos suite_t1_wall = std::numeric_limits<Nanos>::max();
  Nanos suite_t8_wall = std::numeric_limits<Nanos>::max();
  bool suite_same = true;
  for (int round = 0; round < kRounds; ++round) {
    for (const bool serial : {round % 2 == 0, round % 2 != 0}) {
      bench::WallTimer wall;
      const auto times = bench::RunSuite(serial ? serial_cfg : par_cfg);
      Nanos& fastest = serial ? suite_t1_wall : suite_t8_wall;
      fastest = std::min(fastest, wall.ElapsedNs());
      if (suite_t1.empty()) {
        suite_t1 = times;
      } else {
        suite_same &= SameSuite(suite_t1, times);
      }
    }
  }
  ok &= suite_same;
  Nanos suite_virtual = 0;
  for (const auto& w : suite_t1) {
    suite_virtual += w.local_ns + w.ddc_ns + w.teleport_ns;
  }
  const double suite_speedup = Speedup(suite_t1_wall, suite_t8_wall);
  std::printf("suite (24 legs): t1 %.2fs  t8 %.2fs  speedup %.2fx  "
              "results %s (fastest of %d alternating runs each)\n",
              suite_t1_wall / 1e9, suite_t8_wall / 1e9, suite_speedup,
              suite_same ? "identical" : "DIVERGED", kRounds);
  bench::EmitBenchRecord({"pr10_parallel", "suite_t1", "LegRunner",
                          suite_virtual, suite_t1_wall, 0, ""});
  bench::EmitBenchRecord({"pr10_parallel", "suite_t8", "LegRunner",
                          suite_virtual, suite_t8_wall, 0, ""});

  // --- Diagonal racks at two fleet scales, serial scheduler. --------------
  for (const int n : {2, 4}) {
    const int rounds = 6;
    const int ops = n == 2 ? 1500 : 700;
    const RackOutcome serial = RunDiagonalRack(n, rounds, ops);
    std::printf("rack %dx%d: serial %.2fs (handoffs %llu, batched quanta "
                "%llu)\n",
                n, n, serial.wall_ns / 1e9,
                static_cast<unsigned long long>(serial.par.handoff_waits),
                static_cast<unsigned long long>(serial.par.batched_quanta));
    const std::string leg = "rack" + std::to_string(n) + "x" +
                            std::to_string(n);
    bench::EmitBenchRecord({"pr10_parallel", leg + "_t1", "Interleaver",
                            serial.makespan, serial.wall_ns, 0, ""});
    // Same-window quanta must ride one handoff instead of one each.
    ok &= serial.par.batched_quanta > 0;
  }

  // --- Speedup floor (self-gated to the visible cores). -------------------
  const double floor = SpeedupFloor();
  if (floor > 0.0) {
    const bool fast_enough = suite_speedup >= floor;
    std::printf("speedup floor: %.2fx required, %.2fx measured — %s\n",
                floor, suite_speedup, fast_enough ? "ok" : "FAILED");
    ok &= fast_enough;
  } else {
    std::printf("speedup floor: skipped (%u hardware threads visible; "
                "determinism gates still enforced)\n",
                std::thread::hardware_concurrency());
  }

  bench::PrintComparison("suite speedup (8 threads)", 10.0, suite_speedup);
  bench::PrintFooter();
  if (!ok) {
    std::printf("PR10 GATE FAILED\n");
    return 1;
  }
  std::printf("all PR10 gates passed\n");
  return 0;
}
