// Figure 15: the benefit of growing physical memory for a workload larger
// than any single machine. Q9 at scale factor 200 (scaled down here), with
// total memory swept from far-below to above the working set. Paper: all
// platforms struggle at 1 GB; Linux improves until its chassis limit
// (128 GB); the base DDC's disaggregation cost dominates from 64 GB; and
// TELEPORT tracks Linux until the limit, ending 2.3x better than the best
// Linux point and 31.7x better than LegoOS at equal memory.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace teleport;  // NOLINT

int main() {
  bench::PrintBanner("Figure 15: performance vs provisioned memory (Q9)",
                     "SIGMOD'22 TELEPORT, Fig 15");

  // "SF 200" scaled: working set ~40 MiB; sweep memory 1/32 .. 2x of it.
  constexpr double kSf = 4.0;
  db::TpchConfig probe_cfg;
  probe_cfg.scale_factor = kSf;
  const uint64_t ws = db::EstimateTpchBytes(probe_cfg) * 3;  // + temporaries

  const double fractions[] = {1.0 / 32, 1.0 / 8, 1.0 / 2, 2.0};
  std::printf("%-12s %14s %14s %14s\n", "memory", "Linux (ms)", "DDC (ms)",
              "TELEPORT (ms)");
  std::vector<Nanos> linux_times, ddc_times, tele_times;
  for (const double f : fractions) {
    const uint64_t mem = static_cast<uint64_t>(
        f * static_cast<double>(ws));

    // Each deployment dies before the next one stages, so the next one
    // adopts its dataset (DESIGN.md §5).
    // Linux: local DRAM of this size, spilling to SSD.
    const db::QueryResult r_ssd = [&] {
      bench::DeployOptions o;
      o.cache_fraction = f;  // local DRAM = swept size
      auto ssd = bench::MakeDb(ddc::Platform::kLinuxSsd, kSf, o);
      return db::RunQ9(*ssd.ctx, *ssd.database, {});
    }();

    // DDC platforms: fixed small compute cache (2%), pool = swept size.
    bench::DeployOptions ddc_opts;
    ddc_opts.cache_fraction = 0.02;
    ddc_opts.pool_bytes_override = mem;
    const db::QueryResult r_ddc = [&] {
      auto base = bench::MakeDb(ddc::Platform::kBaseDdc, kSf, ddc_opts);
      return db::RunQ9(*base.ctx, *base.database, {});
    }();
    const db::QueryResult r_tele = [&] {
      auto tele = bench::MakeDb(ddc::Platform::kBaseDdc, kSf, ddc_opts);
      db::QueryOptions topts;
      topts.runtime = tele.runtime.get();
      topts.push_ops = db::DefaultTeleportOps("q9");
      return db::RunQ9(*tele.ctx, *tele.database, topts);
    }();

    linux_times.push_back(r_ssd.total_ns);
    ddc_times.push_back(r_ddc.total_ns);
    tele_times.push_back(r_tele.total_ns);
    std::printf("%9.0f%%WS %14.1f %14.1f %14.1f\n", f * 100,
                ToMillis(r_ssd.total_ns), ToMillis(r_ddc.total_ns),
                ToMillis(r_tele.total_ns));
  }

  // Shape checks: (a) every platform improves with memory; (b) at ample
  // memory TELEPORT beats the base DDC decisively; (c) the base DDC's
  // residual disaggregation cost exceeds TELEPORT's.
  const size_t last = tele_times.size() - 1;
  const bool improves = linux_times[0] > linux_times[last] &&
                        ddc_times[0] > ddc_times[last] &&
                        tele_times[0] > tele_times[last];
  const double final_gap = static_cast<double>(ddc_times[last]) /
                           static_cast<double>(tele_times[last]);
  std::printf("\n");
  bench::PrintComparison("TELEPORT over LegoOS at full memory", 31.7,
                         final_gap);
  std::printf("\nshape (all improve with memory; TELEPORT decisively beats "
              "base DDC\nonce memory suffices): %s\n",
              improves && final_gap > 2.0 ? "holds" : "DEVIATES");
  bench::PrintFooter();
  return improves && final_gap > 2.0 ? 0 : 1;
}
