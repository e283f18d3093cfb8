// Figure 1b: the cost of scaling. TPC-H execution time normalized to a
// purely local execution with the same resources, for distributed DBMSs
// (SparkSQL-like 1.2x, Vertica-like 2.3x reference models), MonetDB on the
// base DDC (5.4x) and MonetDB with TELEPORT (1.8x). Compute-local memory
// is 10% of the working set (the Fig 1b configuration).

#include <cstdio>

#include "bench/bench_util.h"
#include "dist/cost_model.h"

using namespace teleport;  // NOLINT

namespace {

struct Case {
  const char* label;
  const char* query;
  db::QueryResult (*fn)(ddc::ExecutionContext&, const db::TpchDatabase&,
                        const db::QueryOptions&);
};

/// Intermediate volume crossing operator boundaries — the shuffle volume a
/// distributed plan of the same query would exchange.
uint64_t ShuffleBytes(const db::QueryResult& r) {
  uint64_t bytes = 0;
  for (const auto& op : r.ops) {
    if (op.kind == db::OpKind::kHashJoin || op.kind == db::OpKind::kGroupBy ||
        op.kind == db::OpKind::kMergeJoin) {
      bytes += op.rows_out * 16;
    }
  }
  return bytes;
}

}  // namespace

int main() {
  bench::PrintBanner("Figure 1b: the cost of scaling", "SIGMOD'22 TELEPORT, Fig 1b");

  constexpr double kSf = 2.0;
  bench::DeployOptions deploy;
  deploy.cache_fraction = 0.10;  // Fig 1b: compute-local memory = 10% of WS

  const Case cases[] = {
      {"Q9", "q9", &db::RunQ9},
      {"Q3", "q3", &db::RunQ3},
      {"Q6", "q6", &db::RunQ6},
  };

  double sum_ddc = 0, sum_tele = 0, sum_spark = 0, sum_vertica = 0;
  bool ok = true;
  for (const Case& c : cases) {
    // Each deployment dies before the next one stages, so the next one
    // adopts its dataset (DESIGN.md §5).
    uint64_t bytes_scanned = 0;
    const db::QueryResult r_local = [&] {
      auto local = bench::MakeDb(ddc::Platform::kLocal, kSf, deploy);
      bytes_scanned = local.database->TotalBytes();
      return c.fn(*local.ctx, *local.database, {});
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
    ok = ok && r_local.checksum == r_ddc.checksum &&
         r_local.checksum == r_tele.checksum;

    // Distributed reference models fed by the measured local profile.
    dist::WorkloadProfile w;
    w.local_time_ns = r_local.total_ns;
    w.bytes_scanned = bytes_scanned;
    w.bytes_shuffled = ShuffleBytes(r_local);
    w.num_stages = static_cast<int>(r_local.ops.size()) / 2;
    // The paper's queries run tens of seconds; our scaled runs complete in
    // tens of milliseconds, so scale the per-stage barrier term down
    // proportionally to keep the model's regime comparable.
    dist::DistConfig dist_cfg;

    sum_ddc += static_cast<double>(r_ddc.total_ns) /
               static_cast<double>(r_local.total_ns);
    sum_tele += static_cast<double>(r_tele.total_ns) /
                static_cast<double>(r_local.total_ns);
    // Barriers are fixed costs; evaluate the model at the paper's time
    // scale by scaling the profile up uniformly.
    dist::WorkloadProfile scaled = w;
    const double up = 20.0 * static_cast<double>(kSecond) /
                      static_cast<double>(w.local_time_ns);
    scaled.local_time_ns = static_cast<Nanos>(
        static_cast<double>(w.local_time_ns) * up);
    scaled.bytes_scanned = static_cast<uint64_t>(
        static_cast<double>(w.bytes_scanned) * up);
    scaled.bytes_shuffled = static_cast<uint64_t>(
        static_cast<double>(w.bytes_shuffled) * up);
    sum_spark += dist::CostOfScaling(scaled, dist::DistEngine::kSparkLike,
                                     dist_cfg);
    sum_vertica += dist::CostOfScaling(scaled, dist::DistEngine::kVerticaLike,
                                       dist_cfg);
  }

  const double n = 3.0;
  std::printf("execution time normalized to local (avg over Q9/Q3/Q6):\n\n");
  bench::PrintComparison("SparkSQL (distributed reference)", 1.2,
                         sum_spark / n);
  bench::PrintComparison("Vertica (distributed reference)", 2.3,
                         sum_vertica / n);
  bench::PrintComparison("MonetDB on base DDC", 5.4, sum_ddc / n);
  bench::PrintComparison("MonetDB with TELEPORT", 1.8, sum_tele / n);
  const bool shape = sum_tele < sum_ddc / 1.5 &&
                     sum_spark / n < sum_vertica / n &&
                     sum_tele / n < sum_vertica / n * 2.0;
  std::printf("\nshape (TELEPORT's cost of scaling comparable to distributed "
              "DBMSs,\nfar below the base DDC): %s; checksums %s\n",
              shape ? "holds" : "DEVIATES", ok ? "match" : "MISMATCH");
  bench::PrintFooter();
  return shape && ok ? 0 : 1;
}
