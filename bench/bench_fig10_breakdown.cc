// Figure 10: per-operator / per-phase breakdown of the most expensive
// query in each system, local vs DDC, annotated with the remote-memory
// traffic each component generates. Paper: one or two components dominate
// in every system — projection & hash join in Q9, finalize & scatter in
// SSSP, map(-shuffle) in WordCount.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"

using namespace teleport;  // NOLINT

namespace {

void Row(const std::string& name, Nanos local, Nanos ddc,
         uint64_t remote_bytes) {
  std::printf("  %-22s %10.1f %10.1f %11.2f\n", name.c_str(), ToMillis(local),
              ToMillis(ddc), static_cast<double>(remote_bytes) / (1 << 20));
}

}  // namespace

int main() {
  bench::PrintBanner("Figure 10: where the DDC time goes, per system",
                     "SIGMOD'22 TELEPORT, Fig 10");

  bool ok = true;

  // --- Q9 in the columnar DBMS ------------------------------------------
  {
    db::QueryResult rl;
    Nanos local_wall = 0;
    {  // dies before the DDC deployment stages, which adopts its dataset
      auto local = bench::MakeDb(ddc::Platform::kLocal, 2.0);
      bench::WallTimer wall;
      rl = db::RunQ9(*local.ctx, *local.database, {});
      local_wall = wall.ElapsedNs();
    }
    auto base = bench::MakeDb(ddc::Platform::kBaseDdc, 2.0);
    sim::Tracer tracer;
    base.ms->set_tracer(&tracer);
    bench::WallTimer wall;
    const db::QueryResult rd = db::RunQ9(*base.ctx, *base.database, {});
    const Nanos ddc_wall = wall.ElapsedNs();
    ok = ok && rl.checksum == rd.checksum;
    const std::string trace = bench::MaybeWriteTrace(tracer, "fig10_q9_ddc");
    bench::EmitBenchRecord(
        {"fig10", "Q9", "Local", rl.total_ns, local_wall, 0, ""});
    bench::EmitBenchRecord({"fig10", "Q9", "BaseDDC", rd.total_ns, ddc_wall,
                            base.ctx->metrics().RemoteMemoryBytes(), trace});
    std::printf("TPC-H Q9 (MonetDB-like)      local(ms)    DDC(ms) "
                "remote(MiB)\n");
    Nanos max_ddc = 0;
    std::string dominant;
    for (size_t i = 0; i < rd.ops.size(); ++i) {
      Row(rd.ops[i].name, rl.ops[i].time_ns, rd.ops[i].time_ns,
          rd.ops[i].remote_bytes);
      if (rd.ops[i].time_ns > max_ddc) {
        max_ddc = rd.ops[i].time_ns;
        dominant = rd.ops[i].name;
      }
    }
    std::printf("  dominant DDC operator: %s (paper: Projection & "
                "HashJoin)\n\n",
                dominant.c_str());
    ok = ok && (dominant.find("HashJoin") != std::string::npos ||
                dominant.find("Projection") != std::string::npos);
  }

  // --- SSSP in the GAS engine ---------------------------------------------
  {
    graph::GasResult rl;
    Nanos local_wall = 0;
    {  // dies before the DDC deployment stages, which adopts its dataset
      auto local = bench::MakeGraph(ddc::Platform::kLocal, 50'000, 12);
      bench::WallTimer wall;
      rl = RunSssp(*local.ctx, local.graph, {});
      local_wall = wall.ElapsedNs();
    }
    auto base = bench::MakeGraph(ddc::Platform::kBaseDdc, 50'000, 12);
    bench::WallTimer wall;
    const graph::GasResult rd = RunSssp(*base.ctx, base.graph, {});
    const Nanos ddc_wall = wall.ElapsedNs();
    ok = ok && rl.checksum == rd.checksum;
    bench::EmitBenchRecord(
        {"fig10", "SSSP", "Local", rl.total_ns, local_wall, 0, ""});
    bench::EmitBenchRecord({"fig10", "SSSP", "BaseDDC", rd.total_ns, ddc_wall,
                            base.ctx->metrics().RemoteMemoryBytes(), ""});
    std::printf("SSSP (PowerGraph-like)       local(ms)    DDC(ms) "
                "remote(MiB)\n");
    for (size_t i = 0; i < rd.phases.size(); ++i) {
      Row(std::string(PhaseToString(rd.phases[i].phase)),
          rl.phases[i].time_ns, rd.phases[i].time_ns,
          rd.phases[i].remote_bytes);
    }
    const Nanos scatter = rd.Profile(graph::Phase::kScatter).time_ns;
    const Nanos finalize = rd.Profile(graph::Phase::kFinalize).time_ns;
    const Nanos apply = rd.Profile(graph::Phase::kApply).time_ns;
    std::printf("  dominant DDC phases: finalize+scatter (paper: same)\n\n");
    ok = ok && scatter + finalize > apply;
  }

  // --- WordCount in the MapReduce engine -----------------------------------
  {
    mr::MrResult rl;
    Nanos local_wall = 0;
    {  // dies before the DDC deployment stages, which adopts its dataset
      auto local = bench::MakeMr(ddc::Platform::kLocal, 4 << 20);
      bench::WallTimer wall;
      rl = RunWordCount(*local.ctx, local.corpus, {});
      local_wall = wall.ElapsedNs();
    }
    auto base = bench::MakeMr(ddc::Platform::kBaseDdc, 4 << 20);
    bench::WallTimer wall;
    const mr::MrResult rd = RunWordCount(*base.ctx, base.corpus, {});
    const Nanos ddc_wall = wall.ElapsedNs();
    ok = ok && rl.checksum == rd.checksum;
    bench::EmitBenchRecord(
        {"fig10", "WC", "Local", rl.total_ns, local_wall, 0, ""});
    bench::EmitBenchRecord({"fig10", "WC", "BaseDDC", rd.total_ns, ddc_wall,
                            base.ctx->metrics().RemoteMemoryBytes(), ""});
    std::printf("WordCount (Phoenix-like)     local(ms)    DDC(ms) "
                "remote(MiB)\n");
    for (size_t i = 0; i < rd.phases.size(); ++i) {
      Row(std::string(MrPhaseToString(rd.phases[i].phase)),
          rl.phases[i].time_ns, rd.phases[i].time_ns,
          rd.phases[i].remote_bytes);
    }
    const Nanos shuffle = rd.Profile(mr::MrPhase::kMapShuffle).time_ns;
    const Nanos compute = rd.Profile(mr::MrPhase::kMapCompute).time_ns;
    const double frac = static_cast<double>(shuffle) /
                        static_cast<double>(shuffle + compute);
    std::printf("  map-shuffle share of map time in DDC: %.0f%% (paper: "
                "95%%)\n\n",
                frac * 100);
    ok = ok && frac > 0.5;
  }

  std::printf("shape (one or two data-intensive components dominate each\n"
              "system's DDC execution): %s\n",
              ok ? "holds" : "DEVIATES");
  bench::PrintFooter();
  return ok ? 0 : 1;
}
