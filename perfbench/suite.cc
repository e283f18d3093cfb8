// fig13_suite: Q9/Q3/Q6, SSSP/RE/CC and WC/Grep, each on Local, BaseDDC
// and TELEPORT — 24 legs, one after another, every leg on a fresh
// deployment with its own generated data (the Fig 13 measurement loop).
// The deployment shapes copy the figure harness's defaults so the default
// seed reproduces the recorded fig13 virtual times.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "db/query.h"
#include "db/tpch.h"
#include "graph/engine.h"
#include "graph/graph.h"
#include "mr/engine.h"
#include "mr/text.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using teleport::Nanos;
namespace ddc = teleport::ddc;
namespace db = teleport::db;
namespace graph = teleport::graph;
namespace mr = teleport::mr;
namespace tp = teleport::tp;

enum Platform { kLocal = 0, kDdc = 1, kTeleport = 2 };
constexpr const char* kPlatformName[3] = {"local", "ddc", "teleport"};
constexpr const char* kPlatformLabel[3] = {"Local", "BaseDDC", "TELEPORT"};
constexpr int kWorkloads = 8;
constexpr const char* kWorkloadName[kWorkloads] = {"Q9", "Q3", "Q6", "SSSP",
                                                   "RE", "CC", "WC", "Grep"};

/// Virtual ns of every leg at the default seed, in leg order: the fig13
/// rows of the committed BENCH JSON files (Local, BaseDDC, TELEPORT per
/// workload).
constexpr Nanos kGoldenLegNs[kWorkloads][3] = {
    {73527801, 505753506, 85603544},       // Q9
    {16259431, 45282736, 20296296},        // Q3
    {1808338, 17214847, 2364782},          // Q6
    {381666201, 7490008311, 406719090},    // SSSP
    {148878492, 2274299916, 160120514},    // RE
    {437301856, 9300490246, 451653068},    // CC
    {130303338, 4928253144, 236351662},    // WC
    {3378954, 28939596, 9578091},          // Grep
};

/// Suite scale: the figure harness's SuiteConfig defaults, or a small
/// shape for the self-test.
struct Scale {
  double db_scale_factor = 6.0;
  uint64_t graph_vertices = 50'000;
  uint64_t graph_degree = 12;
  uint64_t mr_bytes = 4 << 20;
};

/// The paper's testbed ratios: a compute cache of 2% of the working set
/// and a memory pool 8x the working set.
ddc::DdcConfig DeployConfig(Platform p, uint64_t working_set) {
  ddc::DdcConfig dc;
  dc.platform = p == kLocal ? ddc::Platform::kLocal : ddc::Platform::kBaseDdc;
  dc.compute_cache_bytes = std::max<uint64_t>(
      16 * 4096,
      static_cast<uint64_t>(0.02 * static_cast<double>(working_set)));
  dc.memory_pool_bytes =
      static_cast<uint64_t>(8.0 * static_cast<double>(working_set));
  return dc;
}

/// One deployment: memory system, caller context and (DDC platforms) the
/// pushdown runtime, configured through the API only.
struct Deployment {
  std::unique_ptr<ddc::MemorySystem> ms;
  std::unique_ptr<ddc::ExecutionContext> ctx;
  std::unique_ptr<tp::PushdownRuntime> runtime;
};

Deployment MakeDeployment(Platform p, uint64_t working_set,
                          uint64_t space_bytes, SpanLog* log,
                          uint64_t leg) {
  PERFBENCH_SPAN(span, log, "ddc", "memory_system", leg);
  Deployment d;
  d.ms = std::make_unique<ddc::MemorySystem>(
      DeployConfig(p, working_set), teleport::sim::CostParams::Default(),
      space_bytes);
  d.ms->fabric().set_backend(teleport::net::Backend::kIdeal);
  d.ms->set_journal_enabled(false);
  d.ms->set_scalar_datapath(false);
  return d;
}

/// Caller context and runtime, created once the data is staged.
void FinishDeployment(Deployment& d, Platform p) {
  d.ctx = d.ms->CreateContext(ddc::Pool::kCompute);
  if (p != kLocal) d.runtime = std::make_unique<tp::PushdownRuntime>(d.ms.get());
}

struct Leg {
  Nanos virtual_ns = 0;
  int64_t checksum = 0;
  double setup_s = 0;
  double wall_s = 0;
};

Leg RunDbLeg(int w, Platform p, const Scale& scale, uint64_t seed,
             SpanLog* log, uint64_t leg_id, LayerCounters& counters) {
  const int64_t t0 = WallNs();
  db::TpchConfig cfg;
  cfg.scale_factor = scale.db_scale_factor;
  cfg.seed += seed;
  const uint64_t bytes = db::EstimateTpchBytes(cfg);
  Deployment d = MakeDeployment(p, bytes, bytes * 12, log, leg_id);
  std::unique_ptr<db::TpchDatabase> database;
  {
    PERFBENCH_SPAN(span, log, "gen", "db", leg_id);
    database = db::GenerateTpch(d.ms.get(), cfg);
  }
  FinishDeployment(d, p);
  const int64_t t1 = WallNs();

  static constexpr const char* kQuery[3] = {"q9", "q3", "q6"};
  db::QueryOptions opts;
  if (p == kTeleport) {
    opts.runtime = d.runtime.get();
    opts.push_ops = db::DefaultTeleportOps(kQuery[w]);
  }
  db::QueryResult q;
  {
    PERFBENCH_SPAN(span, log, "db", kPlatformName[p], leg_id);
    switch (w) {
      case 0: q = db::RunQ9(*d.ctx, *database, opts); break;
      case 1: q = db::RunQ3(*d.ctx, *database, opts); break;
      default: q = db::RunQ6(*d.ctx, *database, opts); break;
    }
  }
  const int64_t t2 = WallNs();
  if (p != kLocal) {
    counters.AddMetrics(d.ctx->metrics());
    counters.AddFabric(d.ms->fabric());
    counters.AddRuntime(*d.runtime);
  }
  return {q.total_ns, q.checksum, (t1 - t0) * 1e-9, (t2 - t1) * 1e-9};
}

Leg RunGraphLeg(int w, Platform p, const Scale& scale, uint64_t seed,
                SpanLog* log, uint64_t leg_id, LayerCounters& counters) {
  const int64_t t0 = WallNs();
  graph::GraphConfig gc;
  gc.vertices = scale.graph_vertices;
  gc.avg_degree = scale.graph_degree;
  gc.seed += seed;
  const uint64_t bytes = graph::EstimateGraphBytes(gc);
  Deployment d = MakeDeployment(p, bytes, bytes * 6, log, leg_id);
  graph::Graph g;
  {
    PERFBENCH_SPAN(span, log, "gen", "graph", leg_id);
    g = graph::GenerateGraph(d.ms.get(), gc);
  }
  FinishDeployment(d, p);
  const int64_t t1 = WallNs();

  graph::GasOptions opts;
  if (p == kTeleport) {
    opts.runtime = d.runtime.get();
    opts.push_phases = graph::DefaultTeleportPhases();
  }
  graph::GasResult q;
  {
    PERFBENCH_SPAN(span, log, "graph", kPlatformName[p], leg_id);
    switch (w) {
      case 3: q = graph::RunSssp(*d.ctx, g, opts); break;
      case 4: q = graph::RunReachability(*d.ctx, g, opts); break;
      default: q = graph::RunConnectedComponents(*d.ctx, g, opts); break;
    }
  }
  const int64_t t2 = WallNs();
  if (p != kLocal) {
    counters.AddMetrics(d.ctx->metrics());
    counters.AddFabric(d.ms->fabric());
    counters.AddRuntime(*d.runtime);
  }
  return {q.total_ns, q.checksum, (t1 - t0) * 1e-9, (t2 - t1) * 1e-9};
}

Leg RunMrLeg(int w, Platform p, const Scale& scale, uint64_t seed,
             SpanLog* log, uint64_t leg_id, LayerCounters& counters) {
  const int64_t t0 = WallNs();
  mr::TextConfig tc;
  tc.bytes = scale.mr_bytes;
  tc.seed += seed;
  // The MapReduce working set is dominated by the shuffle and reduce
  // buffers, several times the input volume.
  Deployment d =
      MakeDeployment(p, scale.mr_bytes * 8, scale.mr_bytes * 40, log, leg_id);
  mr::TextCorpus corpus;
  {
    PERFBENCH_SPAN(span, log, "gen", "mr", leg_id);
    corpus = mr::GenerateText(d.ms.get(), tc);
  }
  FinishDeployment(d, p);
  const int64_t t1 = WallNs();

  const bool grep = w == 7;
  mr::MrOptions opts;
  if (p == kTeleport) {
    opts.runtime = d.runtime.get();
    opts.push_phases = mr::DefaultTeleportPhases(grep);
  }
  mr::MrResult q;
  {
    PERFBENCH_SPAN(span, log, "mr", kPlatformName[p], leg_id);
    q = grep ? mr::RunGrep(*d.ctx, corpus, "wab", opts)
             : mr::RunWordCount(*d.ctx, corpus, opts);
  }
  const int64_t t2 = WallNs();
  if (p != kLocal) {
    counters.AddMetrics(d.ctx->metrics());
    counters.AddFabric(d.ms->fabric());
    counters.AddRuntime(*d.runtime);
  }
  return {q.total_ns, q.checksum, (t1 - t0) * 1e-9, (t2 - t1) * 1e-9};
}

}  // namespace

Rep RunFig13Suite(const Params& params, SpanLog* log, Checks& checks) {
  Scale scale;
  if (params.tiny) {
    scale.db_scale_factor = 0.05;
    scale.graph_vertices = 500;
    scale.graph_degree = 4;
    scale.mr_bytes = 64 << 10;
  }
  Rep rep;
  LayerCounters counters;
  Leg legs[kWorkloads][3];
  for (int w = 0; w < kWorkloads; ++w) {
    for (int p = kLocal; p <= kTeleport; ++p) {
      const uint64_t leg_id = static_cast<uint64_t>(w * 3 + p);
      const Platform plat = static_cast<Platform>(p);
      Leg& leg = legs[w][p];
      if (w < 3) {
        leg = RunDbLeg(w, plat, scale, params.seed, log, leg_id, counters);
      } else if (w < 6) {
        leg = RunGraphLeg(w, plat, scale, params.seed, log, leg_id, counters);
      } else {
        leg = RunMrLeg(w, plat, scale, params.seed, log, leg_id, counters);
      }
      rep.setup_s += leg.setup_s;
      rep.wall_s += leg.wall_s;
      rep.setup_parts.push_back(leg.setup_s);
      rep.wall_parts.push_back(leg.wall_s);
    }
  }
  if (params.corrupt_checksum) legs[2][kTeleport].checksum ^= 1;

  std::vector<double> leg_ns;
  double vtime_ns = 0;
  double log_speedup = 0;
  for (int w = 0; w < kWorkloads; ++w) {
    const Leg* l = legs[w];
    const bool match =
        l[kLocal].checksum == l[kDdc].checksum &&
        l[kLocal].checksum == l[kTeleport].checksum;
    checks.Expect(match, std::string("fig13_suite ") + kWorkloadName[w] +
                             ": Local, BaseDDC and TELEPORT checksums differ");
    ++rep.attempted;
    rep.failed += match ? 0 : 1;
    for (int p = kLocal; p <= kTeleport; ++p) {
      leg_ns.push_back(static_cast<double>(l[p].virtual_ns));
      vtime_ns += static_cast<double>(l[p].virtual_ns);
      rep.digest = Mix(rep.digest ^ static_cast<uint64_t>(l[p].checksum));
      rep.exact[std::string("leg.") + kWorkloadName[w] + "." +
                kPlatformLabel[p] + "_vns"] =
          static_cast<double>(l[p].virtual_ns);
      if (params.seed == 0 && !params.tiny) {
        checks.Expect(l[p].virtual_ns == kGoldenLegNs[w][p],
                      std::string("fig13_suite ") + kWorkloadName[w] + "/" +
                          kPlatformLabel[p] + ": virtual " +
                          std::to_string(l[p].virtual_ns) +
                          " ns differs from the recorded " +
                          std::to_string(kGoldenLegNs[w][p]) + " ns");
      }
    }
    log_speedup += std::log(static_cast<double>(l[kDdc].virtual_ns) /
                            static_cast<double>(l[kTeleport].virtual_ns));
  }
  rep.exact["vtime_ms"] = vtime_ns * 1e-6;
  rep.exact["vlat_p50_us"] = Percentile(leg_ns, 50.0) * 1e-3;
  rep.exact["vlat_samples"] = static_cast<double>(leg_ns.size());
  rep.exact["teleport_speedup"] = std::exp(log_speedup / kWorkloads);
  counters.Fill(rep.exact);

  if (log != nullptr) {
    double local_s = 0;
    double ddc_s = 0;
    double teleport_s = 0;
    for (const char* layer : {"db", "graph", "mr"}) {
      local_s += log->Seconds(layer, "local");
      ddc_s += log->Seconds(layer, "ddc");
      teleport_s += log->Seconds(layer, "teleport");
    }
    rep.host["ddc.remote_path_s"] = ddc_s - local_s;
    // The Local platform bypasses the cache and pool counters, so the
    // per-access cost covers the two DDC platforms only.
    rep.host["ddc.host_ns_per_access"] =
        counters.accesses == 0
            ? 0.0
            : (ddc_s + teleport_s) * 1e9 /
                  static_cast<double>(counters.accesses);
  }
  return rep;
}

}  // namespace perfbench
