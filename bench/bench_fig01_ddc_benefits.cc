// Figure 1a: the benefit of disaggregated memory pools. When local memory
// is a small fraction of the working set, spilling an in-memory query to
// remote memory (base DDC) beats spilling to a local NVMe SSD, and
// TELEPORT widens the gap. Paper: 9.3x (base DDC) and 39.5x (TELEPORT)
// query speedup over the SSD configuration (memory-intensive TPC-H
// queries, geometric mean).

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

using namespace teleport;  // NOLINT

namespace {

struct Case {
  const char* label;
  const char* query;
  db::QueryResult (*fn)(ddc::ExecutionContext&, const db::TpchDatabase&,
                        const db::QueryOptions&);
};

}  // namespace

int main() {
  bench::PrintBanner("Figure 1a: remote memory vs NVMe SSD under memory "
                     "pressure",
                     "SIGMOD'22 TELEPORT, Fig 1a");

  constexpr double kSf = 2.0;
  bench::DeployOptions deploy;
  deploy.cache_fraction = 0.02;  // local memory ~2% of the working set

  const Case cases[] = {
      {"Q9", "q9", &db::RunQ9},
      {"Q3", "q3", &db::RunQ3},
      {"Q6", "q6", &db::RunQ6},
  };

  std::printf("%-4s %12s %12s %12s %10s %10s\n", "qry", "SSD (ms)",
              "DDC (ms)", "TELE (ms)", "DDC/ssd", "TELE/ssd");
  double geo_ddc = 1.0, geo_tele = 1.0;
  bool ok = true;
  for (const Case& c : cases) {
    // Each deployment dies before the next one stages, so the next one
    // adopts its dataset (DESIGN.md §5).
    const db::QueryResult r_ssd = [&] {
      auto ssd = bench::MakeDb(ddc::Platform::kLinuxSsd, kSf, deploy);
      return c.fn(*ssd.ctx, *ssd.database, {});
    }();
    const db::QueryResult r_ddc = [&] {
      auto base = bench::MakeDb(ddc::Platform::kBaseDdc, kSf, deploy);
      return c.fn(*base.ctx, *base.database, {});
    }();
    const db::QueryResult r_tele = [&] {
      auto tele = bench::MakeDb(ddc::Platform::kBaseDdc, kSf, deploy);
      db::QueryOptions opts;
      opts.runtime = tele.runtime.get();
      opts.push_ops = db::DefaultTeleportOps(c.query);
      return c.fn(*tele.ctx, *tele.database, opts);
    }();

    ok = ok && r_ssd.checksum == r_ddc.checksum &&
         r_ssd.checksum == r_tele.checksum;
    const double ddc_speedup = static_cast<double>(r_ssd.total_ns) /
                               static_cast<double>(r_ddc.total_ns);
    const double tele_speedup = static_cast<double>(r_ssd.total_ns) /
                                static_cast<double>(r_tele.total_ns);
    geo_ddc *= ddc_speedup;
    geo_tele *= tele_speedup;
    std::printf("%-4s %12.1f %12.1f %12.1f %9.1fx %9.1fx\n", c.label,
                ToMillis(r_ssd.total_ns), ToMillis(r_ddc.total_ns),
                ToMillis(r_tele.total_ns), ddc_speedup, tele_speedup);
  }
  geo_ddc = std::pow(geo_ddc, 1.0 / 3.0);
  geo_tele = std::pow(geo_tele, 1.0 / 3.0);
  std::printf("\n");
  bench::PrintComparison("base DDC speedup over SSD (geomean)", 9.3, geo_ddc);
  bench::PrintComparison("TELEPORT speedup over SSD (geomean)", 39.5,
                         geo_tele);
  const bool shape = geo_ddc > 2.0 && geo_tele > geo_ddc * 1.5;
  std::printf("\nshape (DDC >> SSD, TELEPORT >> DDC): %s; checksums %s\n",
              shape ? "holds" : "DEVIATES", ok ? "match" : "MISMATCH");
  bench::PrintFooter();
  return shape && ok ? 0 : 1;
}
