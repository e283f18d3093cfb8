// Figure 17: parallel processing of concurrent pushdown requests. Eight
// compute-pool threads issue a parallel aggregation over Lineitem; the
// memory pool has two physical cores and 1..4 user contexts. Paper:
// speedup over a single context grows with parallelism but with
// diminishing returns once contexts exceed the physical cores (context
// switching).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace teleport;  // NOLINT

int main() {
  bench::PrintBanner("Figure 17: concurrent pushdowns vs user contexts",
                     "SIGMOD'22 TELEPORT, Fig 17");

  // Measure one shard of the parallel aggregation as a pushdown call to
  // obtain its busy/stall profile. The caller has dirtied part of its
  // shard, so the pushed function stalls on coherence round trips — the
  // off-core time that lets extra user contexts overlap useful work.
  constexpr double kSf = 4.0;
  constexpr int kThreads = 8;
  auto tele = bench::MakeDb(ddc::Platform::kBaseDdc, kSf);
  auto& lineitem = tele.database->lineitem;
  const uint64_t shard_rows = lineitem.rows / kThreads;
  auto caller = tele.ms->CreateContext(ddc::Pool::kCompute);
  Nanos busy = 0, stall = 0;
  {
    // The caller thread has recently written part of its shard (the
    // application state a worker is in when it pushes down); the pushed
    // function stalls on coherence round trips for those pages.
    const db::Column& qty = lineitem.Col("l_quantity");
    const uint64_t page_rows = tele.ms->params().page_size / 8;
    ddc::Cursor dirty(*caller);
    for (uint64_t r = 0; r < shard_rows / 4; r += page_rows) {
      dirty.Store<int64_t>(qty.addr() + r * 8, qty.Get(dirty, r));
    }
    const Status st = tele.runtime->Call(*caller, [&](ddc::ExecutionContext&
                                                          mem_ctx) {
      // SUM(l_quantity) with a filter over one shard, in the memory pool.
      int64_t sum = 0;
      ddc::Cursor cur(mem_ctx);
      for (uint64_t r = 0; r < shard_rows; ++r) {
        const int64_t q = qty.Get(cur, r);
        if (q < 24) sum += q;
        mem_ctx.ChargeCpu(3);
      }
      (void)sum;
      return Status::OK();
    });
    TELEPORT_CHECK(st.ok());
    const tp::PushdownBreakdown& bd = tele.runtime->last_breakdown();
    // Off-core time: coherence round trips for the caller-dirtied pages
    // plus the per-request transfer segments.
    stall = bd.online_sync_ns + bd.request_transfer_ns +
            bd.response_transfer_ns;
    busy = bd.function_exec_ns;
  }
  std::printf("per-request profile: busy %.2f ms, stall %.2f ms\n\n",
              ToMillis(busy), ToMillis(stall));

  const auto params = sim::CostParams::Default();
  constexpr int kCores = 2;  // the Fig 17 memory-pool configuration
  std::printf("%-10s %14s %12s\n", "contexts", "makespan (ms)", "speedup");
  std::vector<double> speedups;
  const Nanos m1 =
      tp::InstancePoolMakespan(kThreads, busy, stall, 1, kCores, params);
  for (int contexts = 1; contexts <= 4; ++contexts) {
    const Nanos m = tp::InstancePoolMakespan(kThreads, busy, stall, contexts,
                                             kCores, params);
    const double speedup = static_cast<double>(m1) / static_cast<double>(m);
    speedups.push_back(speedup);
    std::printf("%10d %14.1f %11.2fx\n", contexts, ToMillis(m), speedup);
  }

  const double gain12 = speedups[1] / speedups[0];
  const double gain24 = speedups[3] / speedups[1];
  std::printf("\n");
  bench::PrintComparison("speedup at 2 contexts (2 cores)", 1.9, speedups[1]);
  bench::PrintComparison("speedup at 4 contexts", 2.5, speedups[3]);
  const bool shape = speedups[1] > 1.6 && gain24 < gain12 / 1.2 &&
                     speedups[3] >= speedups[1] * 0.9;
  std::printf("\nshape (near-linear to the core count, diminishing "
              "beyond): %s\n",
              shape ? "holds" : "DEVIATES");
  bench::PrintFooter();
  return shape ? 0 : 1;
}
