#include "db/operators.h"

#include <map>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace teleport::db {
namespace {

/// Host-side reference data mirrored into a DDC column.
class OperatorsTest : public ::testing::Test {
 protected:
  OperatorsTest() {
    ddc::DdcConfig c;
    c.platform = ddc::Platform::kBaseDdc;
    c.compute_cache_bytes = 64 << 10;  // small: exercises paging
    c.memory_pool_bytes = 64 << 20;
    ms_ = std::make_unique<ddc::MemorySystem>(c, sim::CostParams::Default(),
                                              128 << 20);
    ctx_ = ms_->CreateContext(ddc::Pool::kCompute);
  }

  /// Builds a column from a host vector.
  std::unique_ptr<Column> MakeColumn(const std::vector<int64_t>& v,
                                     const std::string& name) {
    auto col = std::make_unique<Column>(ms_.get(), name, v.size());
    for (size_t i = 0; i < v.size(); ++i) col->raw()[i] = v[i];
    return col;
  }

  std::vector<int64_t> ReadArray(ddc::VAddr addr, uint64_t n) {
    std::vector<int64_t> out(n);
    for (uint64_t i = 0; i < n; ++i) out[i] = ctx_->Load<int64_t>(addr + i * 8);
    return out;
  }

  std::unique_ptr<ddc::MemorySystem> ms_;
  std::unique_ptr<ddc::ExecutionContext> ctx_;
};

TEST_F(OperatorsTest, SelectLessMatchesReference) {
  Rng rng(1);
  std::vector<int64_t> v(5000);
  for (auto& x : v) x = static_cast<int64_t>(rng.Uniform(1000));
  auto col = MakeColumn(v, "c");
  const SelVector sel =
      SelectCompare(*ctx_, *col, CmpOp::kLess, 300, 0, nullptr, "sel");
  std::vector<int64_t> expect;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] < 300) expect.push_back(static_cast<int64_t>(i));
  }
  EXPECT_EQ(ReadArray(sel.addr, sel.count), expect);
}

TEST_F(OperatorsTest, SelectRangeAndEqualAndGreater) {
  std::vector<int64_t> v = {5, 10, 15, 20, 25, 10};
  auto col = MakeColumn(v, "c");
  const SelVector r =
      SelectCompare(*ctx_, *col, CmpOp::kRange, 10, 20, nullptr, "r");
  EXPECT_EQ(ReadArray(r.addr, r.count), (std::vector<int64_t>{1, 2, 3, 5}));
  const SelVector e =
      SelectCompare(*ctx_, *col, CmpOp::kEqual, 10, 0, nullptr, "e");
  EXPECT_EQ(ReadArray(e.addr, e.count), (std::vector<int64_t>{1, 5}));
  const SelVector g =
      SelectCompare(*ctx_, *col, CmpOp::kGreater, 15, 0, nullptr, "g");
  EXPECT_EQ(ReadArray(g.addr, g.count), (std::vector<int64_t>{3, 4}));
}

TEST_F(OperatorsTest, SelectionWithCandidateListChains) {
  std::vector<int64_t> a = {1, 9, 1, 9, 1, 9, 9};
  std::vector<int64_t> b = {0, 1, 2, 3, 4, 5, 6};
  auto ca = MakeColumn(a, "a");
  auto cb = MakeColumn(b, "b");
  const SelVector s1 =
      SelectCompare(*ctx_, *ca, CmpOp::kEqual, 9, 0, nullptr, "s1");
  const SelVector s2 =
      SelectCompare(*ctx_, *cb, CmpOp::kGreater, 3, 0, &s1, "s2");
  EXPECT_EQ(ReadArray(s2.addr, s2.count), (std::vector<int64_t>{5, 6}));
}

TEST_F(OperatorsTest, StrContainsSelectsSubstring) {
  StringColumn col(ms_.get(), "names", 4, 16);
  col.RawSet(0, "dark green oak");
  col.RawSet(1, "pale blue pine");
  col.RawSet(2, "greenish tint");
  col.RawSet(3, "red maple");
  const SelVector sel =
      SelectStrContains(*ctx_, col, "green", nullptr, "sel");
  EXPECT_EQ(ReadArray(sel.addr, sel.count), (std::vector<int64_t>{0, 2}));
}

TEST_F(OperatorsTest, ProjectGatherPullsSelectedRows) {
  std::vector<int64_t> v = {100, 200, 300, 400};
  auto col = MakeColumn(v, "c");
  auto rows = MakeColumn({3, 1}, "rows");
  const SelVector sel{rows->addr(), 2};
  const ddc::VAddr out = ProjectGather(*ctx_, *col, sel, "out");
  EXPECT_EQ(ReadArray(out, 2), (std::vector<int64_t>{400, 200}));
}

TEST_F(OperatorsTest, SumsMatchReference) {
  Rng rng(2);
  std::vector<int64_t> v(3000);
  int64_t expect = 0;
  for (auto& x : v) {
    x = rng.UniformRange(-500, 500);
    expect += x;
  }
  auto col = MakeColumn(v, "c");
  EXPECT_EQ(AggrSum(*ctx_, col->addr(), v.size()), expect);
}

TEST_F(OperatorsTest, ExpressionsComputeElementwise) {
  auto a = MakeColumn({10, 20, 30}, "a");
  auto b = MakeColumn({5, 50, 100}, "b");
  const ddc::VAddr mul =
      Expr<2>(*ctx_, {a->addr(), b->addr()}, 3, 45,
              [](int64_t x, int64_t y) { return x * y / 100; }, "mul");
  EXPECT_EQ(ReadArray(mul, 3), (std::vector<int64_t>{0, 10, 30}));
  // price * (100 - discount) / 100
  const ddc::VAddr rev = Expr<2>(
      *ctx_, {a->addr(), b->addr()}, 2, 45,
      [](int64_t p, int64_t d) { return p * (100 - d) / 100; }, "rev");
  EXPECT_EQ(ReadArray(rev, 2),
            (std::vector<int64_t>{10 * 95 / 100, 20 * 50 / 100}));
}

TEST_F(OperatorsTest, ExprWithoutInputsStoresTheConstant) {
  const ddc::VAddr ones =
      Expr<0>(*ctx_, {}, 3, 1, [] { return int64_t{1}; }, "ones");
  EXPECT_EQ(ReadArray(ones, 3), (std::vector<int64_t>{1, 1, 1}));
}

TEST_F(OperatorsTest, ExprAmountMatchesFormula) {
  auto price = MakeColumn({1000}, "p");
  auto disc = MakeColumn({10}, "d");
  auto cost = MakeColumn({30}, "c");
  auto qty = MakeColumn({5}, "q");
  const ddc::VAddr out = Expr<4>(
      *ctx_, {price->addr(), disc->addr(), cost->addr(), qty->addr()}, 1, 60,
      [](int64_t p, int64_t d, int64_t c, int64_t q) {
        return p * (100 - d) / 100 - c * q;
      },
      "amt");
  EXPECT_EQ(ReadArray(out, 1)[0], 1000 * 90 / 100 - 30 * 5);
}

TEST_F(OperatorsTest, HashJoinMatchesUnorderedMapReference) {
  Rng rng(3);
  // Unique build keys 0..999 shuffled into rows; probe with hits & misses.
  std::vector<int64_t> build_keys(1000);
  for (size_t i = 0; i < build_keys.size(); ++i) {
    build_keys[i] = static_cast<int64_t>(i * 7 % 1000 + 10000);
  }
  std::vector<int64_t> probe_keys(5000);
  for (auto& k : probe_keys) {
    k = static_cast<int64_t>(rng.Uniform(2000) + 10000);  // ~50% hit rate
  }
  auto bc = MakeColumn(build_keys, "build");
  auto pc = MakeColumn(probe_keys, "probe");
  const HashTable ht = HashBuild(*ctx_, *bc, nullptr, "ht");
  const JoinResult jr = HashProbe(*ctx_, *pc, nullptr, ht, "jr");

  std::unordered_map<int64_t, int64_t> ref;
  for (size_t i = 0; i < build_keys.size(); ++i) {
    ref[build_keys[i]] = static_cast<int64_t>(i);
  }
  std::vector<int64_t> expect_probe, expect_build;
  for (size_t i = 0; i < probe_keys.size(); ++i) {
    auto it = ref.find(probe_keys[i]);
    if (it != ref.end()) {
      expect_probe.push_back(static_cast<int64_t>(i));
      expect_build.push_back(it->second);
    }
  }
  EXPECT_EQ(ReadArray(jr.probe_rows, jr.count), expect_probe);
  EXPECT_EQ(ReadArray(jr.build_rows, jr.count), expect_build);
}

TEST_F(OperatorsTest, CompositeHashJoinRoundTrips) {
  auto hi_b = MakeColumn({1, 2, 3}, "hi_b");
  auto lo_b = MakeColumn({7, 8, 9}, "lo_b");
  auto hi_p = MakeColumn({2, 3, 2, 5}, "hi_p");
  auto lo_p = MakeColumn({8, 9, 9, 7}, "lo_p");
  const HashTable ht =
      HashBuild(*ctx_, {*hi_b, *lo_b, 1 << 20}, nullptr, "ht");
  const JoinResult jr =
      HashProbe(*ctx_, {*hi_p, *lo_p, 1 << 20}, nullptr, ht, "jr");
  // (2,8)->row1, (3,9)->row2; (2,9) and (5,7) miss.
  EXPECT_EQ(ReadArray(jr.probe_rows, jr.count), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(ReadArray(jr.build_rows, jr.count), (std::vector<int64_t>{1, 2}));
}

TEST_F(OperatorsTest, MergeJoinDenseEmitsDimensionRows) {
  // fk column sorted; dense dimension of 10 rows.
  auto fk = MakeColumn({0, 0, 3, 3, 7, 9}, "fk");
  auto rows = MakeColumn({0, 2, 3, 5}, "rows");
  const SelVector sel{rows->addr(), 4};
  const ddc::VAddr out = MergeJoinDense(*ctx_, *fk, sel, 10, "out");
  EXPECT_EQ(ReadArray(out, 4), (std::vector<int64_t>{0, 3, 3, 9}));
}

TEST_F(OperatorsTest, GroupSumDenseMatchesReference) {
  auto keys = MakeColumn({0, 1, 0, 2, 1, 0}, "k");
  auto vals = MakeColumn({5, 7, 11, 13, 17, 19}, "v");
  const ddc::VAddr g =
      GroupSumDense(*ctx_, keys->addr(), vals->addr(), 6, 4, "g");
  EXPECT_EQ(ReadArray(g, 4), (std::vector<int64_t>{35, 24, 13, 0}));
}

TEST_F(OperatorsTest, GroupSumHashMatchesMapReference) {
  Rng rng(4);
  std::vector<int64_t> keys(4000), vals(4000);
  std::map<int64_t, int64_t> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(rng.Uniform(300)) * 17 - 2000;
    vals[i] = rng.UniformRange(-100, 100);
    ref[keys[i]] += vals[i];
  }
  auto kc = MakeColumn(keys, "k");
  auto vc = MakeColumn(vals, "v");
  const GroupHashResult g =
      GroupSumHash(*ctx_, kc->addr(), vc->addr(), keys.size(), "g");
  EXPECT_EQ(g.groups, ref.size());
  int64_t expect_checksum = 0;
  for (const auto& [k, v] : ref) {
    expect_checksum += (k + 7) * (v + 1'000'003);
  }
  EXPECT_EQ(ChecksumHashGroups(*ctx_, g), expect_checksum);
}

TEST_F(OperatorsTest, DenseChecksumIsOrderSensitive) {
  auto k1 = MakeColumn({0, 1}, "k1");
  auto v1 = MakeColumn({10, 20}, "v1");
  const ddc::VAddr g1 =
      GroupSumDense(*ctx_, k1->addr(), v1->addr(), 2, 2, "g1");
  auto v2 = MakeColumn({20, 10}, "v2");
  const ddc::VAddr g2 =
      GroupSumDense(*ctx_, k1->addr(), v2->addr(), 2, 2, "g2");
  EXPECT_NE(ChecksumDenseGroups(*ctx_, g1, 2),
            ChecksumDenseGroups(*ctx_, g2, 2));
}

TEST_F(OperatorsTest, OperatorsWorkFromMemoryPoolContext) {
  // The same kernels must run in a pushed-down context and produce
  // identical results.
  Rng rng(5);
  std::vector<int64_t> v(2000);
  for (auto& x : v) x = static_cast<int64_t>(rng.Uniform(100));
  auto col = MakeColumn(v, "c");
  ms_->SeedData();
  const SelVector s_compute =
      SelectCompare(*ctx_, *col, CmpOp::kLess, 50, 0, nullptr, "sc");
  auto mem_ctx = ms_->CreateContext(ddc::Pool::kMemory);
  const SelVector s_memory =
      SelectCompare(*mem_ctx, *col, CmpOp::kLess, 50, 0, nullptr, "sm");
  EXPECT_EQ(s_compute.count, s_memory.count);
  EXPECT_EQ(ReadArray(s_compute.addr, s_compute.count),
            ReadArray(s_memory.addr, s_memory.count));
}

}  // namespace
}  // namespace teleport::db
