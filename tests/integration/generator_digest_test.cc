// Byte-identity locks on the three dataset generators: the FNV-1a-64 of
// every byte a generator stages into a fresh address space, at the default
// seeds. Every engine checksum and virtual time downstream is a function of
// these bytes, so a host-side rewrite of a generator must reproduce them.

#include <cstdint>

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

uint64_t StagedDigest(ddc::MemorySystem& ms) {
  const uint64_t n = ms.space().used_bytes();
  const auto* b = static_cast<const unsigned char*>(ms.space().HostPtr(0, n));
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(GeneratorDigestTest, Graph) {
  struct Case {
    uint64_t vertices, degree, digest;
  };
  for (const Case& c : {Case{50'000, 12, 0xb3f94cc046be2cd4ULL},
                        Case{500, 4, 0x9ce16ea7df40f5f5ULL},
                        Case{2, 1, 0xb48cd3c26c896143ULL}}) {
    graph::GraphConfig gc;
    gc.vertices = c.vertices;
    gc.avg_degree = c.degree;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         graph::EstimateGraphBytes(gc) + 3 * 4096);
    graph::GenerateGraph(&ms, gc);
    EXPECT_EQ(StagedDigest(ms), c.digest) << c.vertices << "x" << c.degree;
  }
}

TEST(GeneratorDigestTest, Text) {
  struct Case {
    uint64_t bytes, digest, words, lines;
  };
  // The 100-byte corpus ends in the tail-padding path.
  for (const Case& c : {Case{4 << 20, 0x88e3645fe31dc3c3ULL, 949'820, 55'929},
                        Case{64 << 10, 0xd20f7f4781b71793ULL, 14'857, 872},
                        Case{100, 0x7d2c10c78e89b380ULL, 21, 1}}) {
    mr::TextConfig tc;
    tc.bytes = c.bytes;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         c.bytes + 4096);
    const mr::TextCorpus corpus = mr::GenerateText(&ms, tc);
    EXPECT_EQ(StagedDigest(ms), c.digest) << c.bytes;
    EXPECT_EQ(corpus.words, c.words) << c.bytes;
    EXPECT_EQ(corpus.lines, c.lines) << c.bytes;
  }
}

TEST(GeneratorDigestTest, Tpch) {
  struct Case {
    double scale_factor;
    uint64_t digest;
  };
  for (const Case& c : {Case{6.0, 0xe14155ac3af05c43ULL},
                        Case{0.05, 0x5c3aaeafa14096b1ULL}}) {
    db::TpchConfig cfg;
    cfg.scale_factor = c.scale_factor;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         db::EstimateTpchBytes(cfg) * 2);
    db::GenerateTpch(&ms, cfg);
    EXPECT_EQ(StagedDigest(ms), c.digest) << c.scale_factor;
  }
}

}  // namespace
}  // namespace teleport
