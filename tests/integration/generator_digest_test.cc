// Byte-identity locks on the three dataset generators: the FNV-1a-64 of
// every byte a generator stages into a fresh address space, at the default
// seeds and one past them (perfbench --seed n shifts every generator seed by
// n). Every engine checksum and virtual time downstream is a function of
// these bytes, so a host-side rewrite of a generator must reproduce them.
//
// The same locks hold when a deployment adopts the dataset an earlier one
// staged (DESIGN.md §5), and when a tampered or mismatched spare makes it
// generate again.
//
// The TPC-H and graph generators draw in sim::kGeneratorChunks chunks on
// several host threads. Their last case has rows or vertices that do not
// divide evenly into the chunks; its digest, like every other here, was
// taken from the single-threaded generator before the split.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/tpch.h"
#include "graph/graph.h"
#include "mr/text.h"

namespace teleport {
namespace {

ddc::DdcConfig LocalConfig() {
  ddc::DdcConfig c;
  c.platform = ddc::Platform::kLocal;
  return c;
}

/// FNV-1a-64 of the first `n` bytes of `ms`'s address space.
uint64_t PrefixDigest(ddc::MemorySystem& ms, uint64_t n) {
  const auto* b = static_cast<const unsigned char*>(ms.space().HostPtr(0, n));
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t StagedDigest(ddc::MemorySystem& ms) {
  return PrefixDigest(ms, ms.space().used_bytes());
}

TEST(GeneratorDigestTest, Graph) {
  struct Case {
    uint64_t vertices, degree, seed;
    int64_t max_weight;
    uint64_t digest;
  };
  // max_weight 1 is the unweighted path, which draws no weight.
  for (const Case& c : {Case{50'000, 12, 7, 100, 0xb3f94cc046be2cd4ULL},
                        Case{50'000, 12, 8, 100, 0x38f4d9b421ec2190ULL},
                        Case{50'000, 12, 7, 1, 0x8f8c63f9337abe7aULL},
                        Case{500, 4, 7, 100, 0x9ce16ea7df40f5f5ULL},
                        Case{2, 1, 7, 100, 0xb48cd3c26c896143ULL},
                        Case{10'007, 7, 9, 13, 0x80a941955c38cb8aULL}}) {
    graph::GraphConfig gc;
    gc.vertices = c.vertices;
    gc.avg_degree = c.degree;
    gc.seed = c.seed;
    gc.max_weight = c.max_weight;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         graph::EstimateGraphBytes(gc) + 3 * 4096);
    graph::GenerateGraph(&ms, gc);
    EXPECT_EQ(StagedDigest(ms), c.digest)
        << c.vertices << "x" << c.degree << " seed " << c.seed << " w "
        << c.max_weight;
  }
}

TEST(GeneratorDigestTest, Text) {
  struct Case {
    uint64_t bytes, seed, digest, words, lines;
    uint64_t vocabulary = mr::TextConfig{}.vocabulary;
    double theta = mr::TextConfig{}.zipf_theta;
    uint64_t words_per_line = mr::TextConfig{}.words_per_line;
  };
  // The 100-byte corpus ends in the tail-padding path. The last word of the
  // (64 KiB + 3)-byte corpus starts 7 bytes before the end, too close for a
  // whole 8-byte word slot; that of the (64 KiB + 5)-byte one starts 9 bytes
  // before it.
  for (const Case& c :
       {Case{4 << 20, 17, 0x88e3645fe31dc3c3ULL, 949'820, 55'929},
        Case{4 << 20, 18, 0x1054100795528518ULL, 950'433, 55'971},
        Case{64 << 10, 17, 0xd20f7f4781b71793ULL, 14'857, 872},
        Case{(64 << 10) + 3, 17, 0x505a2bdc16940aa9ULL, 14'858, 872},
        Case{(64 << 10) + 5, 17, 0xd674a2e44cb31869ULL, 14'858, 872},
        Case{100, 17, 0x7d2c10c78e89b380ULL, 21, 1},
        // Four letter-count thresholds and a non-integer Zipf exponent.
        Case{300'007, 19, 0x36f5c6784b1c7294ULL, 58'430, 6'169, 50'000, 0.6,
             7}}) {
    mr::TextConfig tc;
    tc.bytes = c.bytes;
    tc.seed = c.seed;
    tc.vocabulary = c.vocabulary;
    tc.zipf_theta = c.theta;
    tc.words_per_line = c.words_per_line;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         c.bytes + 4096);
    const mr::TextCorpus corpus = mr::GenerateText(&ms, tc);
    EXPECT_EQ(StagedDigest(ms), c.digest) << c.bytes << " seed " << c.seed;
    EXPECT_EQ(corpus.words, c.words) << c.bytes << " seed " << c.seed;
    EXPECT_EQ(corpus.lines, c.lines) << c.bytes << " seed " << c.seed;
  }
}

TEST(GeneratorDigestTest, Tpch) {
  struct Case {
    double scale_factor;
    uint64_t seed, digest;
  };
  for (const Case& c : {Case{6.0, 2022, 0xe14155ac3af05c43ULL},
                        Case{6.0, 2023, 0x3f9612e42ade2b22ULL},
                        Case{0.05, 2022, 0x5c3aaeafa14096b1ULL},
                        Case{0.31, 2024, 0xb709352558b905a4ULL}}) {
    db::TpchConfig cfg;
    cfg.scale_factor = c.scale_factor;
    cfg.seed = c.seed;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         db::EstimateTpchBytes(cfg) * 2);
    db::GenerateTpch(&ms, cfg);
    EXPECT_EQ(StagedDigest(ms), c.digest)
        << c.scale_factor << " seed " << c.seed;
  }
}

// --- Dataset hand-off -------------------------------------------------------

/// One small locked case per generator. `stage` generates it into `ms` and
/// checks what the generator returned besides the bytes.
struct Staging {
  const char* name;
  uint64_t capacity;
  uint64_t digest;
  std::function<void(ddc::MemorySystem&)> stage;
};

std::vector<Staging> SmallStagings() {
  graph::GraphConfig gc;
  gc.vertices = 500;
  gc.avg_degree = 4;
  mr::TextConfig tc;
  tc.bytes = 64 << 10;
  db::TpchConfig dc;
  dc.scale_factor = 0.05;
  return {
      {"graph", graph::EstimateGraphBytes(gc) + 3 * 4096,
       0x9ce16ea7df40f5f5ULL,
       [gc](ddc::MemorySystem& ms) {
         const graph::Graph g = graph::GenerateGraph(&ms, gc);
         EXPECT_EQ(g.edges, 499u * 4);
       }},
      {"text", tc.bytes + 4096, 0xd20f7f4781b71793ULL,
       [tc](ddc::MemorySystem& ms) {
         const mr::TextCorpus corpus = mr::GenerateText(&ms, tc);
         EXPECT_EQ(corpus.words, 14'857u);
         EXPECT_EQ(corpus.lines, 872u);
       }},
      {"tpch", db::EstimateTpchBytes(dc) * 2, 0x5c3aaeafa14096b1ULL,
       [dc](ddc::MemorySystem& ms) {
         const auto database = db::GenerateTpch(&ms, dc);
         EXPECT_EQ(database->lineitem.rows, dc.LineitemRows());
       }},
  };
}

TEST(GeneratorDigestTest, SecondDeploymentAdoptsTheFirstsDataset) {
  constexpr uint64_t kExtra = 3 * 4096;
  for (const Staging& s : SmallStagings()) {
    {
      // This one may adopt what an earlier case left; either way it hands
      // its dataset on when it dies. What it allocates past the dataset
      // goes with it, and stores there, raw or simulated, keep the tag.
      ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                           s.capacity + kExtra);
      s.stage(ms);
      EXPECT_EQ(StagedDigest(ms), s.digest) << s.name;
      const ddc::VAddr extra = ms.space().Alloc(kExtra, "extra");
      std::memset(ms.space().HostPtr(extra, kExtra), 0xab, kExtra);
      auto ctx = ms.CreateContext(ddc::Pool::kCompute);
      ctx->Fill<uint8_t>(extra, 0xcd, kExtra);
    }
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         s.capacity + kExtra);
    s.stage(ms);
    EXPECT_GT(ms.space().adopted_bytes(), 0u) << s.name;
    EXPECT_EQ(ms.space().adopted_bytes(), ms.space().used_bytes()) << s.name;
    EXPECT_EQ(StagedDigest(ms), s.digest) << s.name;
    // Regions past the adopted dataset are zero-filled as before.
    const ddc::VAddr extra = ms.space().Alloc(kExtra, "extra");
    const auto* b =
        static_cast<const unsigned char*>(ms.space().HostPtr(extra, kExtra));
    EXPECT_EQ(std::count(b, b + kExtra, 0), static_cast<long>(kExtra))
        << s.name;
  }
}

/// Stores through the simulator into the staged dataset at `addr`: each
/// writer complements the first byte it writes, so the dataset changes.
struct Writer {
  const char* name;
  std::function<void(ddc::ExecutionContext&, ddc::VAddr addr)> write;
};

std::vector<Writer> DatasetWriters() {
  using ddc::ExecutionContext;
  using ddc::VAddr;
  return {
      {"Store",
       [](ExecutionContext& ctx, VAddr addr) {
         ctx.Store<uint8_t>(addr, ~ctx.Load<uint8_t>(addr));
       }},
      {"StoreSpan",
       [](ExecutionContext& ctx, VAddr addr) {
         uint8_t b[8];
         ctx.LoadSpan<uint8_t>(addr, b, 8);
         for (uint8_t& x : b) x = ~x;
         ctx.StoreSpan<uint8_t>(addr, b, 8);
       }},
      {"Fill",
       [](ExecutionContext& ctx, VAddr addr) {
         ctx.Fill<uint8_t>(addr, ~ctx.Load<uint8_t>(addr), 8);
       }},
      {"Cursor::Store",
       [](ExecutionContext& ctx, VAddr addr) {
         ddc::Cursor cur(ctx);
         cur.Store<uint8_t>(addr, ~cur.Load<uint8_t>(addr));
       }},
      // Two reads of one page fill the context TLB, so the store meets a
      // pinned translation of the page.
      {"Store after two reads",
       [](ExecutionContext& ctx, VAddr addr) {
         ctx.Load<uint8_t>(addr + 1);
         ctx.Load<uint8_t>(addr + 2);
         ctx.Store<uint8_t>(addr, ~ctx.Load<uint8_t>(addr));
       }},
  };
}

TEST(GeneratorDigestTest, TamperedDatasetIsGeneratedAgain) {
  struct Placement {
    const char* name;
    ddc::Platform platform;
    ddc::Pool pool;
  };
  for (const Placement& at :
       {Placement{"Local compute", ddc::Platform::kLocal,
                  ddc::Pool::kCompute},
        Placement{"BaseDDC compute", ddc::Platform::kBaseDdc,
                  ddc::Pool::kCompute},
        Placement{"memory pool", ddc::Platform::kBaseDdc,
                  ddc::Pool::kMemory}}) {
    ddc::DdcConfig config;
    config.platform = at.platform;
    for (const Writer& w : DatasetWriters()) {
      for (const Staging& s : SmallStagings()) {
        const std::string what =
            std::string(s.name) + ", " + w.name + ", " + at.name;
        {
          // This one adopts what the previous case drew, then writes into
          // it.
          ddc::MemorySystem ms(config, sim::CostParams::Default(),
                               s.capacity);
          s.stage(ms);
          const uint64_t staged = ms.space().used_bytes();
          auto ctx = ms.CreateContext(at.pool);
          w.write(*ctx, staged / 2);
          ASSERT_NE(PrefixDigest(ms, staged), s.digest) << what;
        }
        ddc::MemorySystem ms(config, sim::CostParams::Default(),
                             s.capacity);
        s.stage(ms);
        EXPECT_EQ(ms.space().adopted_bytes(), 0u) << what;
        EXPECT_EQ(StagedDigest(ms), s.digest) << what;
      }
    }
  }
}

TEST(GeneratorDigestDeathTest, RawHostWriteIntoStagedDatasetFaults) {
  for (const Staging& s : SmallStagings()) {
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         s.capacity);
    s.stage(ms);
    EXPECT_DEATH(std::memset(ms.space().HostPtr(0, 8), 0, 8), "") << s.name;
  }
}

TEST(GeneratorDigestTest, OtherPageSizeDoesNotAdopt) {
  sim::CostParams large = sim::CostParams::Default();
  large.page_size = 2 * large.page_size;
  for (const Staging& s : SmallStagings()) {
    // The same capacity at both page sizes, so only the page size differs.
    const uint64_t capacity =
        (s.capacity + large.page_size - 1) / large.page_size * large.page_size;
    {
      ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                           capacity);
      s.stage(ms);
    }
    ddc::MemorySystem ms(LocalConfig(), large, capacity);
    s.stage(ms);
    EXPECT_EQ(ms.space().adopted_bytes(), 0u) << s.name;
  }
}

}  // namespace
}  // namespace teleport
