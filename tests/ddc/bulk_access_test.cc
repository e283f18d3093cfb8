// Property test for the extent fast path: a randomized program of scalar
// accesses, spans, fills, cursors, and pushdown sessions is run on
// twin MemorySystems — one with the fast path live (default), one with
// TELEPORT's scalar data path forced (set_scalar_datapath) — and every
// observable must match bit for bit: loaded values, final memory image,
// both contexts' virtual clocks, and the full sim::Metrics of each side.
// Spans are drawn with random alignment and lengths that straddle pages;
// the sweep covers all four coherence modes and all three replacement
// policies, one variant runs with network faults armed (drops, delays,
// dups, link flaps, a pool crash) so the fault paths are equivalence-checked
// too, and one runs a second compute node whose context interleaves
// accesses to the same pages (cross-node ownership migration).

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ddc/memory_system.h"
#include "net/faults.h"

namespace teleport::ddc {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kDataBytes = 16 * kPage;
constexpr uint64_t kWords = kDataBytes / 8;

struct Op {
  enum Kind {
    kLoad,
    kStore,
    kLoadSpan,
    kStoreSpan,
    kFill,
    kReadRange,
    kCursorWalk,     // short sequential cursor run (loads + stores)
    kSessionToggle,  // begin/end a pushdown session
    kMemLoad,        // memory-side accesses (only while a session is open)
    kMemStore,
  };
  Kind kind;
  uint64_t addr = 0;   // word-aligned offset into the region
  uint64_t count = 0;  // elements (spans) or bytes (ReadRange)
  int64_t value = 0;
};

std::vector<Op> MakeProgram(uint64_t seed, int n_ops) {
  Rng rng(seed);
  std::vector<Op> ops;
  auto word_addr = [&](uint64_t max_words) {
    return rng.Uniform(kWords - max_words) * 8;
  };
  for (int i = 0; i < n_ops; ++i) {
    Op op;
    op.kind = static_cast<Op::Kind>(rng.Uniform(10));
    switch (op.kind) {
      case Op::kLoad:
      case Op::kStore:
      case Op::kMemLoad:
      case Op::kMemStore:
        op.addr = word_addr(1);
        op.value = static_cast<int64_t>(rng.Uniform(1u << 30));
        break;
      case Op::kLoadSpan:
      case Op::kStoreSpan:
      case Op::kFill:
      case Op::kCursorWalk:
        // Up to ~1.5 pages of elements so runs regularly straddle pages.
        op.count = 1 + rng.Uniform(768);
        op.addr = word_addr(op.count);
        op.value = static_cast<int64_t>(rng.Uniform(1u << 30));
        break;
      case Op::kReadRange:
        // Unaligned, arbitrary-length reads (page-straddling included).
        op.count = 1 + rng.Uniform(300);
        op.addr = rng.Uniform(kDataBytes - op.count);
        break;
      case Op::kSessionToggle:
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

net::FaultSpec LossySpec() {
  net::FaultSpec spec;
  spec.drop_p = 0.10;
  spec.delay_p = 0.10;
  spec.delay_ns = 2 * kMicrosecond;
  spec.dup_p = 0.05;
  return spec;
}

struct Observed {
  uint64_t digest = 0;
  Nanos compute_now = 0;
  Nanos peer_now = 0;
  Nanos memory_now = 0;
  std::string compute_metrics;
  std::string peer_metrics;
  std::string memory_metrics;
  std::vector<std::byte> image;
  std::string placement_audit;
};

struct Case {
  Platform platform;
  CoherenceMode mode;
  bool faults;
  CachePolicy policy = CachePolicy::kLru;
  int compute_nodes = 1;
};

Observed RunProgram(const Case& k, uint64_t seed, bool scalar) {
  DdcConfig c;
  c.platform = k.platform;
  c.compute_cache_bytes = 4 * kPage;  // tiny: constant eviction pressure
  c.memory_pool_bytes = 8 * kPage;    // pool evicts to storage too
  c.cache_policy = k.policy;
  c.compute_nodes = k.compute_nodes;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  if (scalar) ms.set_scalar_datapath(true);
  const VAddr base = ms.space().Alloc(kDataBytes, "prop");
  // Deterministic initial image, staged before SeedData.
  auto* host = static_cast<int64_t*>(ms.space().HostPtr(base, kDataBytes));
  for (uint64_t w = 0; w < kWords; ++w) {
    host[w] = static_cast<int64_t>(w * 2654435761u);
  }
  ms.SeedData();
  net::FaultInjector inj(seed);
  if (k.faults) {
    inj.SetSpecAll(LossySpec());
    inj.AddLinkFlaps(/*start=*/1 * kMillisecond,
                     /*duration=*/100 * kMicrosecond,
                     /*period=*/3 * kMillisecond, /*count=*/2);
    inj.ScheduleCrashRestart(/*at=*/5 * kMillisecond,
                             /*down_for=*/500 * kMicrosecond);
    ms.fabric().set_fault_injector(&inj);
    ms.set_retry_seed(0xb01);
  }
  const bool ddc = k.platform == Platform::kBaseDdc;
  auto c0 = ms.CreateContext(Pool::kCompute);
  // On a two-node rack every third compute-side op runs on node 1, so the
  // two nodes keep taking pages from each other.
  auto c1 = k.compute_nodes > 1 ? ms.CreateContext(Pool::kCompute, 1)
                                : nullptr;
  auto mc = ddc ? ms.CreateContext(Pool::kMemory) : nullptr;
  bool session = false;
  Observed o;
  auto mix = [&o](int64_t v) {
    o.digest = o.digest * 1099511628211ULL + static_cast<uint64_t>(v);
  };
  std::vector<int64_t> buf(768 + 1);
  int step = 0;
  for (const Op& op : MakeProgram(seed, 400)) {
    ExecutionContext* cc = c1 != nullptr && step++ % 3 == 2 ? c1.get()
                                                             : c0.get();
    switch (op.kind) {
      case Op::kLoad:
        mix(cc->Load<int64_t>(base + op.addr));
        break;
      case Op::kStore:
        cc->Store<int64_t>(base + op.addr, op.value);
        break;
      case Op::kLoadSpan:
        cc->LoadSpan<int64_t>(base + op.addr, buf.data(), op.count);
        for (uint64_t i = 0; i < op.count; ++i) mix(buf[i]);
        break;
      case Op::kStoreSpan:
        for (uint64_t i = 0; i < op.count; ++i) {
          buf[i] = op.value + static_cast<int64_t>(i);
        }
        cc->StoreSpan<int64_t>(base + op.addr, buf.data(), op.count);
        break;
      case Op::kFill:
        cc->Fill<int64_t>(base + op.addr, op.value, op.count);
        break;
      case Op::kReadRange: {
        const auto* p =
            static_cast<const unsigned char*>(
                cc->ReadRange(base + op.addr, op.count));
        mix(p[0]);
        mix(p[op.count - 1]);
        break;
      }
      case Op::kCursorWalk: {
        Cursor cur(*cc);
        for (uint64_t i = 0; i < op.count; ++i) {
          const VAddr a = base + op.addr + i * 8;
          const int64_t v = cur.Load<int64_t>(a);
          if ((i & 3) == 0) cur.Store<int64_t>(a, v + 1);
          mix(v);
        }
        break;
      }
      case Op::kSessionToggle:
        if (!ddc) break;
        if (session) {
          ms.EndPushdownSession();
        } else {
          ms.BeginPushdownSession(k.mode);
        }
        session = !session;
        break;
      case Op::kMemLoad:
        if (session) mix(mc->Load<int64_t>(base + op.addr));
        break;
      case Op::kMemStore:
        if (session) mc->Store<int64_t>(base + op.addr, op.value);
        break;
    }
  }
  if (session) ms.EndPushdownSession();

  o.compute_now = c0->now();
  o.compute_metrics = c0->metrics().ToString();
  if (c1 != nullptr) {
    o.peer_now = c1->now();
    o.peer_metrics = c1->metrics().ToString();
  }
  if (mc != nullptr) {
    o.memory_now = mc->now();
    o.memory_metrics = mc->metrics().ToString();
  }
  const auto* img =
      static_cast<const std::byte*>(ms.space().HostPtr(base, kDataBytes));
  o.image.assign(img, img + kDataBytes);
  o.placement_audit = ms.AuditPlacement();
  return o;
}

class BulkAccessEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(BulkAccessEquivalenceTest, ScalarAndBulkPathsAreBitIdentical) {
  const Case c = GetParam();
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const Observed bulk = RunProgram(c, seed, /*scalar=*/false);
    const Observed scalar = RunProgram(c, seed, /*scalar=*/true);
    EXPECT_EQ(bulk.digest, scalar.digest) << "seed " << seed;
    EXPECT_EQ(bulk.compute_now, scalar.compute_now) << "seed " << seed;
    EXPECT_EQ(bulk.peer_now, scalar.peer_now) << "seed " << seed;
    EXPECT_EQ(bulk.memory_now, scalar.memory_now) << "seed " << seed;
    EXPECT_EQ(bulk.compute_metrics, scalar.compute_metrics)
        << "seed " << seed;
    EXPECT_EQ(bulk.peer_metrics, scalar.peer_metrics) << "seed " << seed;
    EXPECT_EQ(bulk.memory_metrics, scalar.memory_metrics) << "seed " << seed;
    EXPECT_TRUE(bulk.image == scalar.image) << "seed " << seed;
    EXPECT_EQ(bulk.placement_audit, "") << "seed " << seed;
    EXPECT_EQ(scalar.placement_audit, "") << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BulkAccessEquivalenceTest,
    ::testing::Values(
        Case{Platform::kBaseDdc, CoherenceMode::kMesi, false},
        Case{Platform::kBaseDdc, CoherenceMode::kPso, false},
        Case{Platform::kBaseDdc, CoherenceMode::kWeakOrdering, false},
        Case{Platform::kBaseDdc, CoherenceMode::kNone, false},
        Case{Platform::kBaseDdc, CoherenceMode::kMesi, true},
        Case{Platform::kLinuxSsd, CoherenceMode::kNone, false},
        Case{Platform::kLocal, CoherenceMode::kNone, false},
        // FIFO and CLOCK hit bookkeeping on the pinned fast path.
        Case{Platform::kBaseDdc, CoherenceMode::kMesi, false,
             CachePolicy::kFifo},
        Case{Platform::kBaseDdc, CoherenceMode::kMesi, false,
             CachePolicy::kClock},
        Case{Platform::kLinuxSsd, CoherenceMode::kNone, false,
             CachePolicy::kClock},
        // Node 1 interleaves with node 0: pins must refuse a page the
        // other node caches, so the migration path stays scalar.
        Case{Platform::kBaseDdc, CoherenceMode::kMesi, false,
             CachePolicy::kLru, /*compute_nodes=*/2}));

// The context TLB on the plain Load/Store path (no cursor, no span) must
// also be invisible: a mixed sequential/random scalar program matches the
// forced-scalar twin exactly.
TEST(BulkAccessTest, PlainLoadStoreTlbIsInvisible) {
  for (const uint64_t seed : {7u, 19u}) {
    auto run = [&](bool scalar) {
      DdcConfig c;
      c.platform = Platform::kBaseDdc;
      c.compute_cache_bytes = 4 * kPage;
      c.memory_pool_bytes = 32 * kPage;
      MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
      if (scalar) ms.set_scalar_datapath(true);
      const VAddr a = ms.space().Alloc(kDataBytes, "d");
      ms.SeedData();
      auto ctx = ms.CreateContext(Pool::kCompute);
      Rng rng(seed);
      uint64_t digest = 0;
      uint64_t off = 0;
      for (int i = 0; i < 20000; ++i) {
        if (rng.Bernoulli(0.9)) {
          off = (off + 8) % kDataBytes;  // sequential walk
        } else {
          off = rng.Uniform(kWords) * 8;  // random jump
        }
        if (rng.Bernoulli(0.25)) {
          ctx->Store<int64_t>(a + off, static_cast<int64_t>(i));
        } else {
          digest = digest * 31 +
                   static_cast<uint64_t>(ctx->Load<int64_t>(a + off));
        }
      }
      return std::make_pair(digest, ctx->now());
    };
    const auto bulk = run(false);
    const auto scalar = run(true);
    EXPECT_EQ(bulk.first, scalar.first) << "seed " << seed;
    EXPECT_EQ(bulk.second, scalar.second) << "seed " << seed;
  }
}

// Folds every coherence event (kind, page, write, time) into a digest.
class EventDigest : public CoherenceObserver {
 public:
  void OnCoherenceEvent(const CoherenceEvent& ev) override {
    for (const uint64_t v :
         {static_cast<uint64_t>(ev.kind), static_cast<uint64_t>(ev.page),
          static_cast<uint64_t>(ev.write), static_cast<uint64_t>(ev.at)}) {
      digest = digest * 1099511628211ULL + v;
    }
    ++events;
  }
  uint64_t digest = 0;
  uint64_t events = 0;
};

struct CycleCase {
  uint64_t pages;   // pages in the cycle
  uint64_t stride;  // page-number distance between consecutive pages
  CachePolicy policy;
  bool observe = false;
};

// A plain Load/Store program that visits `pages` pages in a fixed cycle,
// a short burst of accesses per visit. The first access of a burst is a
// load or a store; a store to a page faulted in read-only takes the
// read->write upgrade.
Observed RunCycle(const CycleCase& k, uint64_t seed, bool scalar,
                  uint64_t* events) {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 4 * kPage;  // pinned pages get evicted
  c.memory_pool_bytes = 512 * kPage;
  c.cache_policy = k.policy;
  MemorySystem ms(c, sim::CostParams::Default(), 4 << 20);
  if (scalar) ms.set_scalar_datapath(true);
  const uint64_t span_pages = (k.pages - 1) * k.stride + 1;
  const VAddr base = ms.space().Alloc(span_pages * kPage, "cycle");
  ms.SeedData();
  EventDigest log;
  if (k.observe) ms.set_coherence_observer(&log);
  auto ctx = ms.CreateContext(Pool::kCompute);
  Rng rng(seed);
  Observed o;
  for (int round = 0; round < 40; ++round) {
    for (uint64_t i = 0; i < k.pages; ++i) {
      const VAddr page = base + i * k.stride * kPage;
      const uint64_t burst = 1 + rng.Uniform(5);
      for (uint64_t j = 0; j < burst; ++j) {
        const VAddr a = page + rng.Uniform(kPage / 8) * 8;
        if (rng.Bernoulli(0.3)) {
          ctx->Store<int64_t>(a, static_cast<int64_t>(round * 1000 + j));
        } else {
          o.digest = o.digest * 31 +
                     static_cast<uint64_t>(ctx->Load<int64_t>(a));
        }
      }
    }
  }
  ms.set_coherence_observer(nullptr);
  o.digest = o.digest * 31 + log.digest;
  *events = log.events;
  o.compute_now = ctx->now();
  o.compute_metrics = ctx->metrics().ToString();
  o.placement_audit = ms.AuditPlacement();
  return o;
}

// Pages that share a direct-mapped TLB slot evict each other's pins, the
// 4-page cache evicts pinned pages, and with more pages than the 8 stream
// trackers a revisited page has lost its stream slot: every pin must still
// charge exactly what the scalar dispatch charges. Six pages overflow the
// cache but not the streams, so an evicted page's pin keeps its stream
// slot and only its page epoch can refuse it.
TEST(BulkAccessTest, CollidingTlbSlotsAreInvisible) {
  constexpr uint64_t kSlots = ExecutionContext::kTlbSlots;
  std::vector<CycleCase> cases;
  for (const CachePolicy policy :
       {CachePolicy::kLru, CachePolicy::kFifo, CachePolicy::kClock}) {
    for (const uint64_t pages :
         {uint64_t{3}, uint64_t{6}, kSlots + 1, 2 * kSlots + 1}) {
      // Adjacent pages (streams advance page to page), pages that all
      // share one slot, and pages that wrap around the slots once.
      for (const uint64_t stride : {uint64_t{1}, kSlots, kSlots + 1}) {
        cases.push_back({pages, stride, policy});
      }
    }
  }
  cases.push_back({6, kSlots + 1, CachePolicy::kLru, true});
  cases.push_back({2 * kSlots + 1, 1, CachePolicy::kLru, true});
  for (const CycleCase& k : cases) {
    for (const uint64_t seed : {5u, 6u}) {
      uint64_t bulk_events = 0;
      uint64_t scalar_events = 0;
      const Observed bulk = RunCycle(k, seed, false, &bulk_events);
      const Observed scalar = RunCycle(k, seed, true, &scalar_events);
      const std::string where =
          "pages " + std::to_string(k.pages) + " stride " +
          std::to_string(k.stride) + " policy " +
          std::to_string(static_cast<int>(k.policy)) + " observe " +
          std::to_string(k.observe) + " seed " + std::to_string(seed);
      EXPECT_EQ(bulk.digest, scalar.digest) << where;
      EXPECT_EQ(bulk.compute_now, scalar.compute_now) << where;
      EXPECT_EQ(bulk.compute_metrics, scalar.compute_metrics) << where;
      EXPECT_EQ(bulk.placement_audit, "") << where;
      EXPECT_EQ(scalar.placement_audit, "") << where;
      EXPECT_EQ(bulk_events, scalar_events) << where;
      if (k.observe) {
        EXPECT_GT(bulk_events, 0u) << where;
      }
    }
  }
}

// Spans degrade to the exact scalar sequence when a yield hook is
// installed — the explore tier depends on per-access granularity.
TEST(BulkAccessTest, YieldHookForcesPerElementGranularity) {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_cache_bytes = 16 * kPage;
  c.memory_pool_bytes = 64 * kPage;
  MemorySystem ms(c, sim::CostParams::Default(), 1 << 20);
  const VAddr a = ms.space().Alloc(4 * kPage, "d");
  ms.SeedData();
  auto ctx = ms.CreateContext(Pool::kCompute);
  uint64_t yields = 0;
  ctx->set_yield_hook(
      [](void* arg) { ++*static_cast<uint64_t*>(arg); }, &yields);
  std::vector<int64_t> buf(600);
  ctx->LoadSpan<int64_t>(a, buf.data(), buf.size());
  // One yield per element, exactly as a scalar loop would fire.
  EXPECT_EQ(yields, buf.size());
}

}  // namespace
}  // namespace teleport::ddc
