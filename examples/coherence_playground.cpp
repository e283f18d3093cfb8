// Coherence playground: the §4 protocol up close. Walks through the Fig-8
// temporary-context setup, watches individual fault transitions, compares
// the §4.2 relaxations under contention, and demonstrates syncmem, the
// cost-based pushdown advisor, and failure handling.

#include <cstdio>

#include "db/advisor.h"
#include "db/query.h"
#include "ddc/memory_system.h"
#include "teleport/pushdown.h"

using namespace teleport;  // NOLINT: example brevity

namespace {

const char* PermName(ddc::Perm p) {
  switch (p) {
    case ddc::Perm::kNone:
      return "-";
    case ddc::Perm::kRead:
      return "R";
    case ddc::Perm::kWrite:
      return "W";
  }
  return "?";
}

void ShowPage(ddc::MemorySystem& ms, int page, const char* what) {
  std::printf("  %-44s compute=%s temp=%s\n", what,
              PermName(ms.compute_perm(page)), PermName(ms.temp_perm(page)));
}

}  // namespace

int main() {
  constexpr uint64_t kPage = 4096;
  ddc::DdcConfig config;
  config.platform = ddc::Platform::kBaseDdc;
  config.compute_cache_bytes = 64 * kPage;
  config.memory_pool_bytes = 64 << 20;
  ddc::MemorySystem ms(config, sim::CostParams::Default(), 32 << 20);
  const ddc::VAddr data = ms.space().Alloc(8 * kPage, "pages");
  ms.SeedData();

  // --- Act 1: the Fig 8 temporary page table -----------------------------
  std::printf("Act 1: temporary-context construction (Fig 8)\n");
  auto cc = ms.CreateContext(ddc::Pool::kCompute);
  cc->Store<int64_t>(data, 1);             // page 0: compute-writable
  (void)cc->Load<int64_t>(data + kPage);   // page 1: compute-read-only
  ms.BeginPushdownSession(ddc::CoherenceMode::kMesi);
  ShowPage(ms, 0, "written page (compute W -> temp absent)");
  ShowPage(ms, 1, "read page    (compute R -> temp R)");
  ShowPage(ms, 2, "uncached page (temp gets full access)");

  // --- Act 2: online faults (Fig 9) ---------------------------------------
  std::printf("\nAct 2: online synchronization (Fig 9)\n");
  auto mc = ms.CreateContext(ddc::Pool::kMemory);
  (void)mc->Load<int64_t>(data);  // memory read of the dirty compute page
  ShowPage(ms, 0, "after memory-side read (downgrade + flush)");
  mc->Store<int64_t>(data + kPage, 7);  // memory write of the shared page
  ShowPage(ms, 1, "after memory-side write (compute evicted)");
  cc->Store<int64_t>(data + 2 * kPage, 9);  // compute write of temp-W page
  ShowPage(ms, 2, "after compute-side write (temp invalidated)");
  std::printf("  coherence messages so far: %llu (compute) + %llu (memory)\n",
              static_cast<unsigned long long>(
                  cc->metrics().coherence_messages),
              static_cast<unsigned long long>(
                  mc->metrics().coherence_messages));
  ms.CheckSwmrInvariant();
  std::printf("  SWMR invariant verified across all pages.\n");
  ms.EndPushdownSession();

  // --- Act 3: syncmem ------------------------------------------------------
  std::printf("\nAct 3: manual synchronization with syncmem (S4.2)\n");
  cc->Store<int64_t>(data + 3 * kPage, 5);
  const auto before = cc->metrics().syncmem_pages;
  ms.Syncmem(*cc, data + 3 * kPage, kPage);
  std::printf("  flushed %llu dirty page(s); page 3 now clean read-only "
              "(%s)\n",
              static_cast<unsigned long long>(cc->metrics().syncmem_pages -
                                              before),
              PermName(ms.compute_perm(3)));

  // --- Act 4: the advisor on a real query ----------------------------------
  std::printf("\nAct 4: cost-based pushdown advice on TPC-H Q6 (S5.1)\n");
  db::TpchConfig tcfg;
  tcfg.scale_factor = 1.0;
  ddc::DdcConfig qc;
  qc.platform = ddc::Platform::kBaseDdc;
  const uint64_t bytes = db::EstimateTpchBytes(tcfg);
  qc.compute_cache_bytes = bytes / 50;
  qc.memory_pool_bytes = bytes * 8;
  ddc::MemorySystem qms(qc, sim::CostParams::Default(), bytes * 12);
  auto database = db::GenerateTpch(&qms, tcfg);
  auto qctx = qms.CreateContext(ddc::Pool::kCompute);
  const db::QueryResult profile = db::RunQ6(*qctx, *database, {});
  const db::PushdownPlan plan =
      db::AdvisePushdown(profile, db::AdvisorParams{});
  for (const db::OperatorAdvice& a : plan.advice) {
    std::printf("  %-22s save %8.3f ms  cpu penalty %7.3f ms  -> %s\n",
                a.name.c_str(), ToMillis(a.est_remote_saving_ns),
                ToMillis(a.est_cpu_penalty_ns), a.push ? "PUSH" : "keep");
  }

  // --- Act 5: failure handling ---------------------------------------------
  std::printf("\nAct 5: memory-pool failure (S3.2)\n");
  tp::PushdownRuntime runtime(&ms);
  auto caller = ms.CreateContext(ddc::Pool::kCompute);
  ms.fabric().InjectFailureWindowOn(0, caller->now());  // pool dies now
  const Status st = runtime.Call(*caller, [&](ddc::ExecutionContext& m) {
    (void)m.Load<int64_t>(data);
    return Status::OK();
  });
  std::printf("  pushdown after failure: %s\n  runtime panicked: %s "
              "(the real kernel would panic: main memory is lost)\n",
              st.ToString().c_str(), runtime.panicked() ? "yes" : "no");
  return st.IsUnavailable() && runtime.panicked() ? 0 : 1;
}
