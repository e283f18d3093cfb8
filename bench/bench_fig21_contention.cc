// Figure 21: application performance as the contention rate between the
// compute-pool thread and the pushed thread grows from 0.0001% to 1%.
// Paper: local and base DDC are flat (their contention is NUMA-local);
// TELEPORT's default protocol degrades noticeably from ~0.1% (2.1s ->
// 2.3s -> 3.7s); the Weak Ordering relaxation stays flat.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/micro.h"
#include "rack/traffic.h"

using namespace teleport;  // NOLINT
using bench::MicroConfig;
using bench::MicroResult;
using bench::MicroScenario;

namespace {

/// PR7 per-tenant leg: Fig 21's contention knob at rack scale. Four
/// db/graph/mr tenants run the same open-loop traffic twice on a 2x2 rack —
/// once on private address slices (isolated) and once all fighting over ONE
/// shared slice (the tenants' analogue of the figure's read-write
/// contention) — and the latency inflation is the contention cost.
rack::TrafficResult RunTenantLeg(bool shared) {
  ddc::DdcConfig dc;
  dc.platform = ddc::Platform::kBaseDdc;
  dc.compute_cache_bytes = 64 * 4096;
  dc.memory_pool_bytes = 1024 * 4096;
  dc.compute_nodes = 2;
  dc.memory_shards = 2;
  ddc::MemorySystem ms(dc, sim::CostParams::Default(),
                       /*space_bytes=*/4ull * 64 * 4096);
  tp::PushdownRuntime runtime(&ms);
  rack::TrafficConfig cfg;
  cfg.tenants = 4;
  cfg.sessions = 200;
  cfg.ops_per_session = 128;
  cfg.slice_pages = 64;
  cfg.mean_interarrival_ns = 20 * kMicrosecond;
  cfg.shared_slice = shared;
  cfg.seed = 2101;
  return rack::RunOpenLoop(ms, runtime, cfg);
}

}  // namespace

int main() {
  bench::PrintBanner("Figure 21: performance under read-write contention",
                     "SIGMOD'22 TELEPORT, Fig 21 (S7.6)");

  const double rates[] = {0.000001, 0.00001, 0.0001, 0.001, 0.01};
  const MicroScenario scenarios[] = {
      MicroScenario::kLocal, MicroScenario::kBaseDdc,
      MicroScenario::kPushCoherence, MicroScenario::kPushWeakOrdering};

  std::printf("%-12s", "rate");
  for (const auto s : scenarios) {
    std::printf(" %21s", std::string(MicroScenarioToString(s)).c_str());
  }
  std::printf("\n");

  double default_low = 0, default_high = 0;
  double relaxed_low = 0, relaxed_high = 0;
  double base_low = 0, base_high = 0;
  for (const double rate : rates) {
    MicroConfig cfg;
    cfg.region_bytes = 64 << 20;
    cfg.cache_bytes = 2 << 20;
    cfg.accesses = 150'000;
    cfg.contention_rate = rate;
    std::printf("%10.4f%%", rate * 100);
    for (const auto s : scenarios) {
      const MicroResult r = RunMicro(cfg, s);
      std::printf(" %19.1fms", ToMillis(r.time_ns));
      if (s == MicroScenario::kPushCoherence) {
        if (rate == rates[0]) default_low = ToMillis(r.time_ns);
        if (rate == rates[4]) default_high = ToMillis(r.time_ns);
      }
      if (s == MicroScenario::kPushWeakOrdering) {
        if (rate == rates[0]) relaxed_low = ToMillis(r.time_ns);
        if (rate == rates[4]) relaxed_high = ToMillis(r.time_ns);
      }
      if (s == MicroScenario::kBaseDdc) {
        if (rate == rates[0]) base_low = ToMillis(r.time_ns);
        if (rate == rates[4]) base_high = ToMillis(r.time_ns);
      }
    }
    std::printf("\n");
  }

  std::printf("\n");
  bench::PrintComparison("default protocol: 1% vs lowest rate",
                         3.7 / 2.1, default_high / default_low);
  bench::PrintComparison("relaxed protocol: 1% vs lowest rate", 1.0,
                         relaxed_high / relaxed_low);
  // Shape: the default protocol degrades with contention; the relaxation
  // and the base DDC stay (nearly) flat. (Our degradation factor is milder
  // than the paper's 1.8x: the simulated coherence fault costs ~4us vs the
  // ~16us effective ping-pong cost on their testbed; see EXPERIMENTS.md.)
  const bool shape = default_high > default_low * 1.1 &&
                     relaxed_high < relaxed_low * 1.1 &&
                     base_high < base_low * 1.1;
  std::printf("\nshape (default degrades past ~0.1%%; relaxed & baselines "
              "flat): %s\n",
              shape ? "holds" : "DEVIATES");

  // --- PR7 per-tenant leg: contention between tenants on a 2x2 rack. -----
  const rack::TrafficResult isolated = RunTenantLeg(/*shared=*/false);
  const rack::TrafficResult contended = RunTenantLeg(/*shared=*/true);
  const double p50_iso = isolated.scopes.MergedLatency().Percentile(50);
  const double p50_con = contended.scopes.MergedLatency().Percentile(50);
  std::printf("\nper-tenant leg (4 tenants, 2x2 rack, 200 sessions):\n");
  std::printf("%-10s %12s %12s %10s\n", "slices", "makespan", "p50 lat",
              "fair(cmpl)");
  std::printf("%-10s %10lldns %10.0fns %10.3f\n", "private",
              static_cast<long long>(isolated.makespan_ns), p50_iso,
              isolated.completion_fairness);
  std::printf("%-10s %10lldns %10.0fns %10.3f\n", "shared",
              static_cast<long long>(contended.makespan_ns), p50_con,
              contended.completion_fairness);
  bench::EmitBenchRecord({"fig21", "tenants_private", "2x2",
                          isolated.makespan_ns, 0, 0, ""});
  bench::EmitBenchRecord({"fig21", "tenants_shared", "2x2",
                          contended.makespan_ns, 0, 0, ""});
  // Shape: cross-tenant sharing serializes the traffic behind one home
  // shard's workqueue — the same "contention costs latency" claim as the
  // thread-level figure, one level up.
  const bool tenant_shape = p50_con > p50_iso &&
                            isolated.failed == 0 && contended.failed == 0;
  std::printf("\ntenant contention inflates p50 by %.2fx: %s\n",
              p50_iso > 0 ? p50_con / p50_iso : 0.0,
              tenant_shape ? "holds" : "DEVIATES");
  bench::PrintFooter();
  return (shape && tenant_shape) ? 0 : 1;
}
