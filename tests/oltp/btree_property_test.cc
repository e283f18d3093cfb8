// Satellite: B+-tree structural property test. Random insert/delete
// programs with tiny node capacities (so every batch crosses page
// boundaries through splits and merges) are replayed against a std::map
// oracle: after every batch the tree must audit clean — sorted keys,
// uniform leaf depth, fill-factor bounds, consistent leaf chain — and its
// in-order digest must equal the digest folded over the oracle. The whole
// program runs on both the extent fast path and the scalar datapath
// (TELEPORT_SCALAR_DATAPATH equivalent via set_scalar_datapath) and must
// be bit-identical between them, content *and* virtual time.

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ddc/memory_system.h"
#include "oltp/btree.h"
#include "oltp/workload.h"

namespace teleport {
namespace {

using oltp::BTree;
using oltp::RecordMeta;

constexpr uint64_t kPage = 4096;

struct Scale {
  uint64_t key_range;
  int batches;
  int ops_per_batch;
};

constexpr Scale kScales[] = {
    {64, 4, 48},    // small: shallow tree, heavy churn on few leaves
    {512, 6, 96},   // large: multi-level tree, splits and merges at depth
};

struct Outcome {
  uint64_t digest = 0;
  uint64_t records = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t height = 0;
  Nanos now = 0;
};

/// Digest of the oracle's content with the tree's own fold (in-order
/// Mix(key), Mix(value), Mix(meta) chain).
uint64_t OracleDigest(
    const std::map<uint64_t, std::pair<uint64_t, uint64_t>>& oracle) {
  uint64_t d = 0;
  for (const auto& [key, vm] : oracle) {
    d = Mix64(d ^ key);
    d = Mix64(d ^ vm.first);
    d = Mix64(d ^ vm.second);
  }
  return d;
}

void RunProgram(uint64_t seed, const Scale& scale, bool scalar,
                Outcome* out) {
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_cache_bytes = 64 * kPage;
  cfg.memory_pool_bytes = 4096 * kPage;
  ddc::MemorySystem ms(cfg, sim::CostParams::Default(), 32 << 20);
  ms.set_scalar_datapath(scalar);
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);

  oltp::BTreeOptions opts;
  opts.arena_pages = 768;
  opts.max_leaf_entries = 6;   // tiny caps force deep trees on small key
  opts.max_inner_entries = 5;  // sets: every batch splits and merges
  BTree tree(&ms, *ctx, opts);
  ms.SeedData();

  std::map<uint64_t, std::pair<uint64_t, uint64_t>> oracle;
  Rng rng(Mix64(seed) ^ 0xb7ee);

  for (int batch = 0; batch < scale.batches; ++batch) {
    for (int op = 0; op < scale.ops_per_batch; ++op) {
      const uint64_t key = rng.Next() % scale.key_range;
      if (rng.Next() % 10 < 6 || oracle.empty()) {
        const uint64_t value = rng.Next();
        const uint64_t meta = RecordMeta::Pack(rng.Next() % 16, true);
        const bool inserted = tree.Insert(*ctx, key, value, meta);
        EXPECT_EQ(inserted, oracle.find(key) == oracle.end())
            << "seed " << seed << " key " << key;
        oracle[key] = {value, meta};
      } else {
        const bool deleted = tree.Delete(*ctx, key);
        EXPECT_EQ(deleted, oracle.erase(key) == 1)
            << "seed " << seed << " key " << key;
      }
    }
    const BTree::Audit audit = tree.AuditStructure(*ctx);
    ASSERT_TRUE(audit.ok) << "seed " << seed << " batch " << batch << ": "
                          << audit.error;
    EXPECT_EQ(audit.records, oracle.size());
    EXPECT_EQ(audit.digest, OracleDigest(oracle))
        << "seed " << seed << " batch " << batch;
  }

  // Point lookups agree with the oracle (value word lives at slot + 8).
  for (int i = 0; i < 32; ++i) {
    const uint64_t key = rng.Next() % scale.key_range;
    const ddc::VAddr slot = tree.FindRecord(*ctx, key);
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_EQ(slot, 0u) << "seed " << seed << " key " << key;
    } else {
      ASSERT_NE(slot, 0u) << "seed " << seed << " key " << key;
      EXPECT_EQ(ctx->Load<uint64_t>(slot + 8), it->second.first);
      EXPECT_EQ(ctx->Load<uint64_t>(slot + 16), it->second.second);
    }
  }

  // Drain to empty (forces merges all the way back down), then regrow.
  while (!oracle.empty()) {
    const uint64_t key = oracle.begin()->first;
    EXPECT_TRUE(tree.Delete(*ctx, key));
    oracle.erase(key);
  }
  {
    const BTree::Audit audit = tree.AuditStructure(*ctx);
    ASSERT_TRUE(audit.ok) << "seed " << seed << " drained: " << audit.error;
    EXPECT_EQ(audit.records, 0u);
    EXPECT_EQ(tree.height(*ctx), 1u) << "empty tree must collapse to a "
                                        "single root leaf";
  }
  for (uint64_t key = 0; key < 40; ++key) {
    tree.Insert(*ctx, key, Mix64(key), RecordMeta::Pack(0, true));
    oracle[key] = {Mix64(key), RecordMeta::Pack(0, true)};
  }
  const BTree::Audit audit = tree.AuditStructure(*ctx);
  EXPECT_TRUE(audit.ok) << audit.error;
  EXPECT_EQ(audit.digest, OracleDigest(oracle));

  out->digest = audit.digest;
  out->records = audit.records;
  out->splits = tree.splits();
  out->merges = tree.merges();
  out->height = tree.height(*ctx);
  out->now = ctx->now();
}

TEST(BTreePropertyTest, RandomProgramsMatchOracleOnBothDatapaths) {
  for (uint64_t seed = 1; seed <= 9; ++seed) {
    for (const Scale& scale : kScales) {
      Outcome bulk;
      RunProgram(seed, scale, /*scalar=*/false, &bulk);
      EXPECT_GT(bulk.splits, 0u) << "caps this small must split";
      EXPECT_GT(bulk.merges, 0u) << "the drain phase must merge";
      EXPECT_GT(bulk.height, 1u) << "the program must have grown the tree";

      Outcome scalar;
      RunProgram(seed, scale, /*scalar=*/true, &scalar);
      EXPECT_EQ(bulk.digest, scalar.digest)
          << "seed " << seed << ": datapaths diverged on content";
      EXPECT_EQ(bulk.records, scalar.records);
      EXPECT_EQ(bulk.splits, scalar.splits);
      EXPECT_EQ(bulk.merges, scalar.merges);
      EXPECT_EQ(bulk.now, scalar.now)
          << "seed " << seed << ": scalar datapath must be virtual-time "
          << "bit-identical to the extent fast path";
    }
  }
}

/// Derived (page-sized) capacities: a few thousand records stay shallow,
/// and the audit digest still tracks the oracle.
TEST(BTreePropertyTest, PageSizedNodesStayShallow) {
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_cache_bytes = 64 * kPage;
  cfg.memory_pool_bytes = 4096 * kPage;
  ddc::MemorySystem ms(cfg, sim::CostParams::Default(), 32 << 20);
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  oltp::BTreeOptions opts;  // capacities derived from the page size
  opts.arena_pages = 256;
  BTree tree(&ms, *ctx, opts);
  ms.SeedData();
  EXPECT_GE(tree.leaf_capacity(), 100);

  std::map<uint64_t, std::pair<uint64_t, uint64_t>> oracle;
  for (uint64_t i = 0; i < 2000; ++i) {
    const uint64_t key = Mix64(i) % 100000;
    const uint64_t meta = RecordMeta::Pack(0, true);
    tree.Insert(*ctx, key, i, meta);
    oracle[key] = {i, meta};
  }
  const BTree::Audit audit = tree.AuditStructure(*ctx);
  ASSERT_TRUE(audit.ok) << audit.error;
  EXPECT_EQ(audit.records, oracle.size());
  EXPECT_EQ(audit.digest, OracleDigest(oracle));
  EXPECT_LE(tree.height(*ctx), 3u);
}

}  // namespace
}  // namespace teleport
