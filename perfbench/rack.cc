// rack_2x2_qrdma: rack::RunOpenLoop on 2 compute nodes x 2 memory shards
// over the queued-RDMA fabric. Four tenants cover the four kernel families
// (db, graph, mr, oltp); every session is one pushdown call, arriving open
// loop just below the load knee.
//
// The traced run cannot put spans inside RunOpenLoop, so it re-drives the
// same sessions from RunOpenLoop's public pieces (CreateContext, Load,
// PushdownRuntime::Call around rack::RunKernel) and must reproduce its
// checksum, makespan and percentiles exactly.

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "perfbench.h"
#include "rack/traffic.h"

namespace perfbench {

namespace {

using teleport::Nanos;
namespace ddc = teleport::ddc;
namespace net = teleport::net;
namespace rack = teleport::rack;
namespace tp = teleport::tp;

constexpr uint64_t kPage = 4096;

rack::TrafficConfig Traffic(const Params& params) {
  rack::TrafficConfig cfg;
  cfg.tenants = 4;
  cfg.workload_families = 4;
  cfg.sessions = params.tiny ? 2'000 : 60'000;
  cfg.ops_per_session = 128;
  cfg.slice_pages = 64;
  cfg.mean_interarrival_ns = 35 * teleport::kMicrosecond;
  cfg.seed += params.seed;
  return cfg;
}

struct Rack {
  std::unique_ptr<ddc::MemorySystem> ms;
  std::unique_ptr<tp::PushdownRuntime> runtime;
};

Rack MakeRack(const rack::TrafficConfig& cfg, net::Backend backend) {
  ddc::DdcConfig dc;
  dc.platform = ddc::Platform::kBaseDdc;
  dc.compute_cache_bytes = 64 * kPage;
  dc.memory_pool_bytes = 1024 * kPage;
  dc.compute_nodes = 2;
  dc.memory_shards = 2;
  Rack r;
  r.ms = std::make_unique<ddc::MemorySystem>(
      dc, teleport::sim::CostParams::Default(),
      static_cast<uint64_t>(cfg.tenants) * cfg.slice_pages * kPage);
  r.ms->fabric().set_backend(backend);
  r.ms->set_journal_enabled(false);
  r.ms->set_scalar_datapath(false);
  r.runtime = std::make_unique<tp::PushdownRuntime>(r.ms.get());
  return r;
}

/// RunOpenLoop, step for step, with a span around each call into a layer.
rack::TrafficResult Redrive(ddc::MemorySystem& ms, tp::PushdownRuntime& runtime,
                            const rack::TrafficConfig& cfg, SpanLog& log) {
  const int nodes = ms.compute_nodes();
  const uint64_t page = ms.space().page_size();
  std::vector<ddc::VAddr> slices;
  std::vector<int> homes;
  for (int t = 0; t < cfg.tenants; ++t) {
    const ddc::VAddr slice = ms.space().Alloc(
        cfg.slice_pages * page, "rack.slice." + std::to_string(t));
    slices.push_back(slice);
    homes.push_back(ms.ShardOf(ms.space().PageOf(slice)));
  }
  teleport::Rng arrival_rng(Mix(cfg.seed) ^ 0x0a11ULL);
  std::vector<Nanos> arrivals(static_cast<size_t>(cfg.sessions), 0);
  Nanos at = 0;
  for (int i = 0; i < cfg.sessions; ++i) {
    arrivals[static_cast<size_t>(i)] = at;
    double gap = static_cast<double>(cfg.mean_interarrival_ns);
    if (cfg.jitter_frac > 0.0) {
      gap *= 1.0 + cfg.jitter_frac * (2.0 * arrival_rng.NextDouble() - 1.0);
    }
    at += std::max<Nanos>(0, static_cast<Nanos>(gap));
  }

  rack::TrafficResult r;
  r.scopes = teleport::sim::TenantScopes(cfg.tenants);
  std::priority_queue<Nanos, std::vector<Nanos>, std::greater<>> inflight;
  Nanos last_end = 0;
  log.Reserve(log.spans().size() + 4 * static_cast<size_t>(cfg.sessions));
  for (int i = 0; i < cfg.sessions; ++i) {
    const uint64_t id = static_cast<uint64_t>(i);
    SpanLog::Scope session(&log, "rack", "session", id);
    const int tenant = i % cfg.tenants;
    const auto kind =
        static_cast<rack::WorkloadKind>(tenant % cfg.workload_families);
    const Nanos start = arrivals[static_cast<size_t>(i)];
    while (!inflight.empty() && inflight.top() <= start) inflight.pop();

    std::unique_ptr<ddc::ExecutionContext> ctx;
    {
      SpanLog::Scope span(&log, "ddc", "create_context", id);
      ctx = ms.CreateContext(ddc::Pool::kCompute, tenant % nodes, tenant);
    }
    ctx->clock().Reset(start);
    const teleport::sim::Metrics before = ctx->metrics();
    const ddc::VAddr slice = slices[static_cast<size_t>(tenant)];
    (void)ctx->Load<int64_t>(slice);

    tp::PushdownFlags flags;
    flags.home_shard = homes[static_cast<size_t>(tenant)];
    uint64_t digest = 0;
    const uint64_t slice_bytes = cfg.slice_pages * page;
    const uint64_t kernel_seed = Mix(cfg.seed ^ (id << 1));
    teleport::Status st;
    {
      SpanLog::Scope call(&log, "teleport", "call", id);
      st = runtime.Call(
          *ctx,
          [&](ddc::ExecutionContext& mem_ctx) {
            SpanLog::Scope body(&log, "rack", "kernel", id);
            digest = rack::RunKernel(mem_ctx, kind, slice, slice_bytes,
                                     cfg.ops_per_session, kernel_seed);
            return teleport::Status::OK();
          },
          flags);
    }
    if (!st.ok()) {
      ++r.failed;
      digest = Mix(static_cast<uint64_t>(st.code()));
    }
    const Nanos end = ctx->now();
    inflight.push(end);
    last_end = std::max(last_end, end);
    ++r.completed;
    r.checksum += Mix(digest ^ (id * 0x9e37ULL));
    r.scopes.Record(tenant, ctx->metrics().Diff(before), end - start);
  }
  r.makespan_ns = last_end;
  const teleport::Histogram merged = r.scopes.MergedLatency();
  r.p50_latency_ns = merged.Percentile(50.0);
  r.p99_latency_ns = merged.Percentile(99.0);
  return r;
}

}  // namespace

Rep RunRack2x2QueuedRdma(const Params& params, SpanLog* log, Checks& checks) {
  const rack::TrafficConfig cfg = Traffic(params);
  Rep rep;
  Rack rk = TimedSetup(log, rep.setup_s, [&](SpanLog* setup_log) {
    PERFBENCH_SPAN(span, setup_log, "ddc", "memory_system", 0);
    return MakeRack(cfg, net::Backend::kQueuedRdma);
  });
  const int64_t t1 = WallNs();
  rack::TrafficResult r;
  if (log == nullptr) {
    r = rack::RunOpenLoop(*rk.ms, *rk.runtime, cfg);
  } else {
    r = Redrive(*rk.ms, *rk.runtime, cfg, *log);
  }
  const int64_t t2 = WallNs();
  rep.wall_s = (t2 - t1) * 1e-9;
  rep.wall_parts = {rep.wall_s};
  rep.setup_parts = {rep.setup_s};
  if (params.corrupt_checksum && log != nullptr) r.checksum ^= 1;

  rep.attempted = static_cast<uint64_t>(cfg.sessions);
  rep.failed = r.failed;
  checks.Expect(r.failed == 0, "rack_2x2_qrdma: " + std::to_string(r.failed) +
                                   " sessions ended with a non-OK status");
  checks.Expect(r.completed == static_cast<uint64_t>(cfg.sessions),
                "rack_2x2_qrdma: completed " + std::to_string(r.completed) +
                    " of " + std::to_string(cfg.sessions) + " sessions");
  rep.digest = r.checksum;

  const teleport::Histogram latency = r.scopes.MergedLatency();
  rep.exact["vtime_ms"] = static_cast<double>(r.makespan_ns) * 1e-6;
  rep.exact["vlat_p50_us"] = r.p50_latency_ns * 1e-3;
  rep.exact["vlat_p999_us"] = latency.Percentile(99.9) * 1e-3;
  rep.exact["vlat_samples"] = static_cast<double>(latency.count());
  rep.exact["rack.vlat_p99_us"] = r.p99_latency_ns * 1e-3;
  LayerCounters counters;
  counters.AddMetrics(r.scopes.MergedMetrics());
  counters.AddFabric(rk.ms->fabric());
  counters.AddRuntime(*rk.runtime);
  counters.Fill(rep.exact);

  if (log != nullptr) {
    const std::vector<double> sessions = log->Durations("rack", "session");
    const double calls = static_cast<double>(log->Count("teleport", "call"));
    const double call_s = log->Seconds("teleport", "call");
    const double body_s = log->Seconds("rack", "kernel");
    const double session_s = log->Seconds("rack", "session");
    rep.host["rack.session_host_us_p50"] = Percentile(sessions, 50) * 1e-3;
    rep.host["rack.session_host_us_p99"] = Percentile(sessions, 99) * 1e-3;
    rep.host["rack.context_host_ns"] =
        log->Seconds("ddc", "create_context") * 1e9 / calls;
    rep.host["teleport.call_host_ns"] = (call_s - body_s) * 1e9 / calls;
    rep.host["teleport.body_host_ns"] = body_s * 1e9 / calls;
    rep.host["ddc.host_ns_per_access"] =
        session_s * 1e9 / static_cast<double>(counters.accesses);

    // The same traffic on the ideal fabric, untraced: the wall-time
    // difference to the untraced queued-RDMA runs is the backend's cost.
    Rack ideal = MakeRack(cfg, net::Backend::kIdeal);
    const int64_t i0 = WallNs();
    const rack::TrafficResult ri = rack::RunOpenLoop(*ideal.ms, *ideal.runtime, cfg);
    rep.reference_wall["net.backend_host_s"] = (WallNs() - i0) * 1e-9;
    checks.Expect(ri.failed == 0 && ri.completed == r.completed,
                  "rack_2x2_qrdma: the kIdeal reference run did not complete");
  }
  return rep;
}

}  // namespace perfbench
