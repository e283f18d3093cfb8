// Google-benchmark micro-kernels for the simulator itself: host-side
// throughput of the access path, the coherence fault path, RLE encoding,
// the interleaver, the dataset generators, a db query plan and the OLTP
// table build. These guard the *simulator's* performance (how much real
// time a simulated access costs), which bounds how large a scaled
// experiment can be.

#include <malloc.h>
#include <sched.h>

#include <limits>
#include <memory>
#include <utility>

#include <benchmark/benchmark.h>

#include "common/rle.h"
#include "common/rng.h"
#include "db/query.h"
#include "db/tpch.h"
#include "ddc/memory_system.h"
#include "graph/graph.h"
#include "mr/text.h"
#include "oltp/btree.h"
#include "oltp/workload.h"
#include "sim/interleaver.h"
#include "teleport/pushdown.h"

namespace teleport {
namespace {

constexpr uint64_t kPage = 4096;

ddc::DdcConfig DdcCfg(uint64_t cache_pages) {
  ddc::DdcConfig c;
  c.platform = ddc::Platform::kBaseDdc;
  c.compute_cache_bytes = cache_pages * kPage;
  c.memory_pool_bytes = 1u << 30;
  return c;
}

void BM_SequentialLoads(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->Load<int64_t>(a + off));
    off = (off + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialLoads);

// The same sequential walk, fast path disabled — the denominator of the
// CI wall-clock smoke check (scalar vs bulk on one machine, same build).
void BM_SequentialLoadsScalar(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  ms.set_scalar_datapath(true);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->Load<int64_t>(a + off));
    off = (off + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialLoadsScalar);

// Sequential walk through a caller-held cursor (the engines' inner-loop
// idiom): the pin declares sequential intent, so every same-page access
// after the first is a single closed-form charge.
void BM_CursorLoads(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  ddc::Cursor cur(*ctx);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cur.Load<int64_t>(a + off));
    off = (off + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CursorLoads);

void BM_CursorLoadsScalar(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  ms.set_scalar_datapath(true);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  ddc::Cursor cur(*ctx);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cur.Load<int64_t>(a + off));
    off = (off + 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CursorLoadsScalar);

// Extent transfers: one LoadSpan per 512-element run, batched into
// per-page charges on the fast path.
void BM_SpanLoads(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  int64_t buf[512];
  uint64_t off = 0;
  for (auto _ : state) {
    ctx->LoadSpan<int64_t>(a + off, buf, 512);
    benchmark::DoNotOptimize(buf[0]);
    off = (off + sizeof(buf)) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_SpanLoads);

void BM_SpanFill(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t off = 0;
  for (auto _ : state) {
    ctx->Fill<int64_t>(a + off, 7, 512);
    off = (off + 512 * 8) % (64 << 20);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_SpanFill);

void BM_RandomLoads(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 256 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx->Load<int64_t>(a + rng.Uniform((64 << 20) / 8) * 8));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomLoads);

void BM_LocalPlatformLoads(benchmark::State& state) {
  ddc::DdcConfig c;
  c.platform = ddc::Platform::kLocal;
  ddc::MemorySystem ms(c, sim::CostParams::Default(), 64 << 20);
  const ddc::VAddr a = ms.space().Alloc(32 << 20, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->Load<int64_t>(a + off));
    off = (off + 8) % (32 << 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalPlatformLoads);

void BM_CoherenceFaultRoundTrip(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(4096), sim::CostParams::Default(), 64 << 20);
  const ddc::VAddr a = ms.space().Alloc(1024 * kPage, "d");
  ms.SeedData();
  auto cc = ms.CreateContext(ddc::Pool::kCompute);
  for (uint64_t p = 0; p < 1024; ++p) cc->Store<int64_t>(a + p * kPage, 1);
  ms.BeginPushdownSession(ddc::CoherenceMode::kMesi);
  auto mc = ms.CreateContext(ddc::Pool::kMemory);
  uint64_t p = 0;
  for (auto _ : state) {
    // Ping-pong ownership of a page between the pools.
    mc->Store<int64_t>(a + p * kPage, 2);
    cc->Store<int64_t>(a + p * kPage, 3);
    p = (p + 1) % 1024;
  }
  ms.EndPushdownSession();
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CoherenceFaultRoundTrip);

// --- Placement classes -----------------------------------------------------

// LRU hit bookkeeping on a page that is never at the head: every OnHit
// unlinks and relinks (a head hit is a no-op and would measure nothing).
void BM_ComputeCacheHit(benchmark::State& state) {
  constexpr uint64_t kPages = 1024;
  ddc::ComputeCache cache(DdcCfg(kPages), kPage);
  cache.EnsureSize(kPages);
  for (ddc::PageId p = 0; p < kPages; ++p) cache.Insert(p);
  ddc::PageId p = 0;
  for (auto _ : state) {
    cache.OnHit(p);
    p = (p + 1) % kPages;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComputeCacheHit);

// A full CLOCK cache churned at capacity: each step evicts the victim and
// caches its twin (page ^ kPages), so exactly one page of every twin pair is
// resident. Every other newcomer is hit at once, so the hand keeps finding
// referenced pages to pass over.
void BM_ComputeCacheClockVictim(benchmark::State& state) {
  constexpr uint64_t kPages = 1024;
  ddc::DdcConfig c = DdcCfg(kPages);
  c.cache_policy = ddc::CachePolicy::kClock;
  ddc::ComputeCache cache(c, kPage);
  cache.EnsureSize(2 * kPages);
  for (ddc::PageId p = 0; p < kPages; ++p) cache.Insert(p);
  uint64_t i = 0;
  for (auto _ : state) {
    const ddc::PageId victim = cache.Victim();
    cache.Remove(victim);
    const ddc::PageId twin = victim ^ kPages;
    cache.Insert(twin);
    if ((++i & 1) != 0) cache.OnHit(twin);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComputeCacheClockVictim);

// A full pool shard fed pages in a cycle twice its capacity: every Admit
// misses and evicts the LRU page.
void BM_PoolShardAdmitEvict(benchmark::State& state) {
  constexpr uint64_t kPages = 1024;
  ddc::DdcConfig c = DdcCfg(64);
  c.memory_pool_bytes = kPages * kPage;
  ddc::PoolShard shard(c, kPage);
  shard.EnsureSize(2 * kPages);
  uint64_t evicted = 0;
  auto evict = [&evicted](ddc::PageId) { ++evicted; };
  for (ddc::PageId p = 0; p < kPages; ++p) shard.Admit(p, evict);
  ddc::PageId p = kPages;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shard.Admit(p, evict));
    p = (p + 1) % (2 * kPages);
  }
  benchmark::DoNotOptimize(evicted);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolShardAdmitEvict);

// Page-stride loads over 16x the compute cache and 4x the pool: every
// access faults, admits its page to the pool (evicting one to storage) and
// evicts a cache victim.
void BM_MissEvictLoads(benchmark::State& state) {
  constexpr uint64_t kPages = 1024;
  ddc::DdcConfig c = DdcCfg(64);
  c.memory_pool_bytes = 256 * kPage;
  ddc::MemorySystem ms(c, sim::CostParams::Default(), 2 * kPages * kPage);
  const ddc::VAddr a = ms.space().Alloc(kPages * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  uint64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->Load<int64_t>(a + p * kPage));
    p = (p + 1) % kPages;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MissEvictLoads);

// A 2x1 rack whose two nodes store to the same pages in turn: every store
// migrates the page from the other node's cache, writing it back first.
void BM_RackMigrationLoads(benchmark::State& state) {
  constexpr uint64_t kPages = 256;
  ddc::DdcConfig c = DdcCfg(4096);
  c.compute_nodes = 2;
  ddc::MemorySystem ms(c, sim::CostParams::Default(), 16 << 20);
  const ddc::VAddr a = ms.space().Alloc(kPages * kPage, "d");
  ms.SeedData();
  auto c0 = ms.CreateContext(ddc::Pool::kCompute, 0);
  auto c1 = ms.CreateContext(ddc::Pool::kCompute, 1);
  uint64_t p = 0;
  for (auto _ : state) {
    c0->Store<int64_t>(a + p * kPage, 1);
    c1->Store<int64_t>(a + p * kPage, 2);
    p = (p + 1) % kPages;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RackMigrationLoads);

void BM_RleEncodeResidentList(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  std::vector<PageEntry> pages;
  Rng rng(7);
  uint64_t p = 0;
  for (uint64_t i = 0; i < n; ++i) {
    p += rng.Bernoulli(0.9) ? 1 : 5;  // mostly contiguous
    pages.push_back({p, rng.Bernoulli(0.3)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RleEncode(pages));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RleEncodeResidentList)->Arg(1024)->Arg(65536);

void BM_InterleaverStep(benchmark::State& state) {
  class Spin : public sim::Task {
   public:
    Nanos clock() const override { return clock_; }
    bool done() const override { return false; }
    void Step() override { clock_ += 10; }

   private:
    Nanos clock_ = 0;
  };
  Spin tasks[8];
  sim::Interleaver il;
  for (auto& t : tasks) il.Add(&t);
  Nanos deadline = 0;
  for (auto _ : state) {
    deadline += 1000;
    il.RunUntil(deadline);
  }
  state.SetItemsProcessed(state.iterations() * 100 * 8);
}
BENCHMARK(BM_InterleaverStep);

void BM_PushdownCallOverhead(benchmark::State& state) {
  ddc::MemorySystem ms(DdcCfg(256), sim::CostParams::Default(), 16 << 20);
  const ddc::VAddr a = ms.space().Alloc(64 * kPage, "d");
  ms.SeedData();
  tp::PushdownRuntime runtime(&ms);
  auto caller = ms.CreateContext(ddc::Pool::kCompute);
  for (auto _ : state) {
    const Status st = runtime.Call(*caller, [&](ddc::ExecutionContext& mc) {
      benchmark::DoNotOptimize(mc.Load<int64_t>(a));
      return Status::OK();
    });
    if (!st.ok()) state.SkipWithError("pushdown failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushdownCallOverhead);

// --- Dataset generators ----------------------------------------------------

// Times `generate(ms, seed_offset)` alone, at fig13's dataset sizes: each
// iteration stages into a fresh local-platform MemorySystem of `bytes`,
// built and destroyed untimed, as every perfbench leg stages its own
// dataset. A dying space hands its dataset on to the next one (DESIGN.md
// §5), so with `adopt` every iteration but the first stages the same
// dataset and times its adoption; without it iterations alternate between
// two seeds, so each one draws its dataset in full.
//
// It switches the process to perfbench's malloc settings, so each space
// reuses the resident host pages of the one before. Under glibc's defaults
// a space above its 32 MiB mmap threshold ceiling (TPC-H's) is mapped
// afresh each time and the iteration times its page faults. The kernels
// registered before the generators keep the defaults.
template <typename Generate>
void TimeGenerator(benchmark::State& state, uint64_t bytes, bool adopt,
                   Generate generate) {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  ddc::DdcConfig local;
  local.platform = ddc::Platform::kLocal;
  // Counts on across the repeated runs google-benchmark makes of a kernel,
  // so no two consecutive iterations stage the same seed.
  static uint64_t iteration = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto ms = std::make_unique<ddc::MemorySystem>(
        local, sim::CostParams::Default(), bytes);
    const uint64_t seed_offset = adopt ? 0 : iteration++ % 2;
    state.ResumeTiming();
    generate(ms.get(), seed_offset);
    benchmark::ClobberMemory();
    state.PauseTiming();
    ms.reset();
    state.ResumeTiming();
  }
}

void GenerateText(benchmark::State& state, bool adopt) {
  mr::TextConfig tc;
  tc.bytes = 4 << 20;
  TimeGenerator(state, tc.bytes + kPage, adopt,
                [tc](ddc::MemorySystem* ms, uint64_t seed_offset) mutable {
                  tc.seed = mr::TextConfig{}.seed + seed_offset;
                  benchmark::DoNotOptimize(mr::GenerateText(ms, tc));
                });
  state.SetItemsProcessed(state.iterations() * tc.bytes);
  state.SetBytesProcessed(state.iterations() * tc.bytes);
}
void BM_GenerateText(benchmark::State& state) { GenerateText(state, false); }
void BM_GenerateTextAdopted(benchmark::State& state) {
  GenerateText(state, true);
}
BENCHMARK(BM_GenerateText)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateTextAdopted)->Unit(benchmark::kMillisecond);

// BM_GenerateText with the calling thread held to the CPU it runs on: the
// generator's chunk pool then has one thread, which draws every chunk in
// place, in order. The thread's affinity is restored afterwards.
void BM_GenerateTextOneCpu(benchmark::State& state) {
  cpu_set_t saved{};
  cpu_set_t one{};
  const int cpu = sched_getcpu();
  if (cpu >= 0) CPU_SET(cpu, &one);
  if (cpu < 0 || sched_getaffinity(0, sizeof(saved), &saved) != 0 ||
      sched_setaffinity(0, sizeof(one), &one) != 0) {
    state.SkipWithError("cannot hold the thread to one CPU");
    return;
  }
  GenerateText(state, false);
  sched_setaffinity(0, sizeof(saved), &saved);
}
BENCHMARK(BM_GenerateTextOneCpu)->Unit(benchmark::kMillisecond);

void GenerateGraph(benchmark::State& state, bool adopt) {
  graph::GraphConfig gc;
  gc.vertices = 50'000;
  gc.avg_degree = 12;
  TimeGenerator(state, graph::EstimateGraphBytes(gc) + 3 * kPage, adopt,
                [gc](ddc::MemorySystem* ms, uint64_t seed_offset) mutable {
                  gc.seed = graph::GraphConfig{}.seed + seed_offset;
                  benchmark::DoNotOptimize(graph::GenerateGraph(ms, gc));
                });
  state.SetItemsProcessed(state.iterations() * gc.vertices * gc.avg_degree);
}
void BM_GenerateGraph(benchmark::State& state) { GenerateGraph(state, false); }
void BM_GenerateGraphAdopted(benchmark::State& state) {
  GenerateGraph(state, true);
}
BENCHMARK(BM_GenerateGraph)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateGraphAdopted)->Unit(benchmark::kMillisecond);

void GenerateTpch(benchmark::State& state, bool adopt) {
  db::TpchConfig cfg;
  cfg.scale_factor = 6.0;
  TimeGenerator(state, db::EstimateTpchBytes(cfg) * 2, adopt,
                [cfg](ddc::MemorySystem* ms, uint64_t seed_offset) mutable {
                  cfg.seed = db::TpchConfig{}.seed + seed_offset;
                  benchmark::DoNotOptimize(db::GenerateTpch(ms, cfg));
                });
  state.SetItemsProcessed(state.iterations() * cfg.LineitemRows());
}
void BM_GenerateTpch(benchmark::State& state) { GenerateTpch(state, false); }
void BM_GenerateTpchAdopted(benchmark::State& state) {
  GenerateTpch(state, true);
}
BENCHMARK(BM_GenerateTpch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateTpchAdopted)->Unit(benchmark::kMillisecond);

// One jump of the generators' chunked draws (Rng::Advance): O(log n)
// squarings mod the characteristic polynomial, then 256 steps.
void BM_RngAdvance(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    rng.Advance(n);
    benchmark::DoNotOptimize(rng);
  }
  state.SetItemsProcessed(state.iterations());
}
// TPC-H SF 6's lineitem draws about 2^21.3 values; 2^44 is far beyond any.
BENCHMARK(BM_RngAdvance)->Arg(1 << 21)->Arg(int64_t{1} << 44);

// The text generator's word draw: one uniform double and one Zipf sample.
void BM_ZipfSample(benchmark::State& state) {
  const ZipfGenerator zipf(20'000, 0.8);
  Rng rng(17);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

// --- A db query plan -------------------------------------------------------

// One Q9 plan on a BaseDDC deployment of TPC-H SF 0.5, shaped as fig13's db
// legs are (a compute cache of 2% of the dataset, a pool of 8 times it):
// the db engine's operators, the context fast path and the cache, which
// fig13's db legs time too coarsely to resolve a change to them. The
// dataset is staged once before the timed loop; every iteration builds a
// fresh deployment that adopts it, untimed, and times the query alone. It
// switches the process to perfbench's malloc settings, as the kernels
// before it do.
void BM_Q9Plan(benchmark::State& state) {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  db::TpchConfig cfg;
  cfg.scale_factor = 0.5;
  const uint64_t bytes = db::EstimateTpchBytes(cfg);
  ddc::DdcConfig dc;
  dc.platform = ddc::Platform::kBaseDdc;
  dc.compute_cache_bytes = bytes / 50;
  dc.memory_pool_bytes = 8 * bytes;
  auto deploy = [&] {
    auto ms = std::make_unique<ddc::MemorySystem>(
        dc, sim::CostParams::Default(), 12 * bytes);
    auto database = db::GenerateTpch(ms.get(), cfg);
    return std::make_pair(std::move(ms), std::move(database));
  };
  deploy();  // dies at once, handing its dataset on
  for (auto _ : state) {
    state.PauseTiming();
    auto [ms, database] = deploy();
    auto ctx = ms->CreateContext(ddc::Pool::kCompute);
    state.ResumeTiming();
    benchmark::DoNotOptimize(db::RunQ9(*ctx, *database, {}).checksum);
    state.PauseTiming();
    ctx.reset();
    database.reset();
    ms.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Q9Plan)->Unit(benchmark::kMillisecond);

// --- OLTP table build ------------------------------------------------------

// perfbench's ycsb_a_coop table build, whose median is that workload's
// setup_s: a BaseDDC deployment (48-page cache, 4096-page pool, 32 MiB
// space), a B+-tree with a 512-page arena, 256 preloaded keys, SeedData.
// The tear-down is untimed. It switches the process to perfbench's malloc
// settings, so each build reuses the resident host pages of the one
// before, as perfbench's builds do; the generator kernels before it set
// them too, and the kernels before those keep glibc's defaults.
void BM_BuildYcsbTable(benchmark::State& state) {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  ddc::DdcConfig dc;
  dc.platform = ddc::Platform::kBaseDdc;
  dc.compute_cache_bytes = 48 * kPage;
  dc.memory_pool_bytes = 4096 * kPage;
  oltp::BTreeOptions opts;
  opts.arena_pages = 512;
  for (auto _ : state) {
    auto ms = std::make_unique<ddc::MemorySystem>(
        dc, sim::CostParams::Default(), 32 << 20);
    ms->fabric().set_backend(net::Backend::kIdeal);
    ms->set_journal_enabled(false);
    ms->set_scalar_datapath(false);
    auto loader = ms->CreateContext(ddc::Pool::kCompute);
    auto tree = std::make_unique<oltp::BTree>(ms.get(), *loader, opts);
    oltp::PreloadTable(*loader, *tree, 256);
    ms->SeedData();
    benchmark::ClobberMemory();
    state.PauseTiming();
    tree.reset();
    loader.reset();
    ms.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildYcsbTable);

}  // namespace
}  // namespace teleport

BENCHMARK_MAIN();
