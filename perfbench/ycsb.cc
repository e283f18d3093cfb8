// ycsb_a_coop: YCSB-A (50% reads, 50% updates, zipfian theta 0.99 over 256
// keys) on the DDC-resident B+-tree under OCC. Three sessions run as
// sim::CoopTasks under a seeded sim::RandomSchedule; probes stay local.
//
// The schedule must be RandomSchedule: under the default
// SmallestClockSchedule interleaved YCSB sessions do not finish. The
// commit-latch spin in src/oltp/txn.cc charges ChargeCpu(1), which rounds
// to 0 ns, so a spinning session's clock never passes the latch holder's
// and the smallest-clock policy keeps picking the spinner.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "oltp/btree.h"
#include "oltp/txn.h"
#include "oltp/workload.h"
#include "perfbench.h"
#include "sim/coop_task.h"
#include "sim/interleaver.h"
#include "sim/tenant_scopes.h"

namespace perfbench {

namespace {

using teleport::Nanos;
namespace ddc = teleport::ddc;
namespace oltp = teleport::oltp;
namespace sim = teleport::sim;

constexpr uint64_t kPage = 4096;
constexpr int kSessions = 3;

/// The preloaded table: memory system, loader context and B+-tree.
struct Table {
  std::unique_ptr<ddc::MemorySystem> ms;
  std::unique_ptr<ddc::ExecutionContext> loader;
  std::unique_ptr<oltp::BTree> tree;
};

Table BuildTable(uint64_t keyspace, SpanLog* log) {
  Table t;
  {
    PERFBENCH_SPAN(span, log, "ddc", "memory_system", 0);
    ddc::DdcConfig dc;
    dc.platform = ddc::Platform::kBaseDdc;
    dc.compute_cache_bytes = 48 * kPage;  // small: descents evict and fault
    dc.memory_pool_bytes = 4096 * kPage;
    t.ms = std::make_unique<ddc::MemorySystem>(dc, sim::CostParams::Default(),
                                               32 << 20);
    t.ms->fabric().set_backend(teleport::net::Backend::kIdeal);
    t.ms->set_journal_enabled(false);
    t.ms->set_scalar_datapath(false);
  }
  t.loader = t.ms->CreateContext(ddc::Pool::kCompute);
  oltp::BTreeOptions opts;
  opts.arena_pages = 512;
  opts.push_probes = false;
  t.tree = std::make_unique<oltp::BTree>(t.ms.get(), *t.loader, opts);
  {
    PERFBENCH_SPAN(span, log, "gen", "oltp", 0);
    oltp::PreloadTable(*t.loader, *t.tree, keyspace);
  }
  t.ms->SeedData();
  return t;
}

}  // namespace

Rep RunYcsbACoop(const Params& params, SpanLog* log, Checks& checks) {
  oltp::YcsbConfig cfg;
  cfg.sessions = kSessions;
  cfg.txns_per_session = params.tiny ? 8 : 128;
  cfg.ops_per_txn = 4;
  cfg.keyspace = 256;
  cfg.read_fraction = 0.5;
  cfg.update_fraction = 0.5;
  cfg.insert_fraction = 0.0;
  cfg.zipfian = true;
  cfg.zipf_theta = 0.99;
  cfg.seed += params.seed;
  sim::TenantScopes scopes(kSessions);
  cfg.scopes = &scopes;

  Rep rep;
  Table table = TimedSetup(log, rep.setup_s, [&](SpanLog* setup_log) {
    return BuildTable(cfg.keyspace, setup_log);
  });
  oltp::TxnManager mgr(table.ms.get(), table.tree.get());
  const int64_t t1 = WallNs();

  std::vector<std::unique_ptr<ddc::ExecutionContext>> ctxs;
  std::vector<oltp::YcsbResult> results(kSessions);
  std::vector<int64_t> session_cpu_ns(kSessions, 0);
  sim::Interleaver::ParCounters par;
  {
    std::vector<std::unique_ptr<sim::CoopTask>> tasks;
    sim::Interleaver il;
    for (int s = 0; s < kSessions; ++s) {
      ctxs.push_back(table.ms->CreateContext(ddc::Pool::kCompute, 0, s));
      ddc::ExecutionContext* ctx = ctxs.back().get();
      oltp::YcsbConfig session_cfg = cfg;
      session_cfg.base_tenant = s;
      const bool traced = log != nullptr;
      tasks.push_back(std::make_unique<sim::CoopTask>(
          std::vector<ddc::ExecutionContext*>{ctx},
          [ctx, &mgr, session_cfg, &results, &session_cpu_ns, s, traced] {
            const int64_t c0 = traced ? ThreadCpuNs() : 0;
            results[static_cast<size_t>(s)] =
                oltp::RunYcsbSession(*ctx, mgr, session_cfg, s);
            if (traced) session_cpu_ns[static_cast<size_t>(s)] = ThreadCpuNs() - c0;
          },
          /*quantum=*/16));
      il.Add(tasks.back().get());
    }
    sim::RandomSchedule schedule(42 + params.seed);
    il.set_schedule(&schedule);
    PERFBENCH_SPAN(span, log, "sim", "run", 0);
    il.Run();
    par = il.par_counters();
  }
  const int64_t t2 = WallNs();
  rep.wall_s = (t2 - t1) * 1e-9;
  rep.wall_parts = {rep.wall_s};
  rep.setup_parts = {rep.setup_s};

  LayerCounters counters;
  uint64_t commits = 0;
  uint64_t gave_up = 0;
  Nanos makespan = 0;
  for (int s = 0; s < kSessions; ++s) {
    const oltp::YcsbResult& r = results[static_cast<size_t>(s)];
    commits += r.committed;
    gave_up += r.gave_up;
    rep.digest ^= r.commit_digest;
    counters.AddMetrics(ctxs[static_cast<size_t>(s)]->metrics());
    makespan = std::max(makespan, ctxs[static_cast<size_t>(s)]->now());
  }
  counters.AddFabric(table.ms->fabric());
  counters.handoffs = par.handoff_waits;
  counters.batched_quanta = par.batched_quanta;
  uint64_t content = table.tree->ContentDigest(*table.loader);
  if (params.corrupt_checksum && log != nullptr) content ^= 1;
  rep.digest = Mix(rep.digest ^ content);

  const uint64_t txns =
      static_cast<uint64_t>(kSessions) * static_cast<uint64_t>(cfg.txns_per_session);
  rep.attempted = txns;
  rep.failed = gave_up;
  checks.Expect(commits == txns, "ycsb_a_coop: " + std::to_string(commits) +
                                     " commits, expected " +
                                     std::to_string(txns));
  checks.Expect(gave_up == 0, "ycsb_a_coop: " + std::to_string(gave_up) +
                                  " transactions gave up");

  const teleport::Histogram latency = scopes.MergedLatency();
  rep.exact["vtime_ms"] = static_cast<double>(makespan) * 1e-6;
  rep.exact["vlat_p50_us"] = latency.Percentile(50.0) * 1e-3;
  rep.exact["vlat_samples"] = static_cast<double>(latency.count());
  rep.exact["vtxn_per_ms"] =
      static_cast<double>(commits) / (static_cast<double>(makespan) * 1e-6);
  counters.Fill(rep.exact);

  if (log != nullptr) {
    double cpu_s = 0;
    for (int64_t ns : session_cpu_ns) cpu_s += static_cast<double>(ns) * 1e-9;
    const double run_s = log->Seconds("sim", "run");
    rep.host["oltp.session_cpu_s"] = cpu_s;
    rep.host["sim.handoff_s"] = run_s - cpu_s;
    rep.host["sim.host_us_per_handoff"] =
        (run_s - cpu_s) * 1e6 / static_cast<double>(par.handoff_waits);
    rep.host["ddc.host_ns_per_access"] =
        cpu_s * 1e9 / static_cast<double>(counters.accesses);
  }
  return rep;
}

}  // namespace perfbench
