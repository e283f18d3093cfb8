// Edge cases of the operator library: empty inputs, single rows,
// full-match selections, and pipelines built entirely from degenerate
// intermediates.

#include <vector>

#include <gtest/gtest.h>

#include "db/operators.h"

namespace teleport::db {
namespace {

class OperatorsEdgeTest : public ::testing::Test {
 protected:
  OperatorsEdgeTest() {
    ddc::DdcConfig c;
    c.platform = ddc::Platform::kBaseDdc;
    c.compute_cache_bytes = 64 << 10;
    c.memory_pool_bytes = 64 << 20;
    ms_ = std::make_unique<ddc::MemorySystem>(c, sim::CostParams::Default(),
                                              64 << 20);
    ctx_ = ms_->CreateContext(ddc::Pool::kCompute);
  }

  std::unique_ptr<Column> MakeColumn(const std::vector<int64_t>& v,
                                     const std::string& name) {
    auto col = std::make_unique<Column>(ms_.get(), name, v.size());
    for (size_t i = 0; i < v.size(); ++i) col->raw()[i] = v[i];
    return col;
  }

  std::unique_ptr<ddc::MemorySystem> ms_;
  std::unique_ptr<ddc::ExecutionContext> ctx_;
};

TEST_F(OperatorsEdgeTest, EmptySelectionPropagatesThroughPipeline) {
  auto col = MakeColumn({1, 2, 3, 4, 5}, "c");
  const SelVector none =
      SelectCompare(*ctx_, *col, CmpOp::kLess, -100, 0, nullptr, "none");
  EXPECT_EQ(none.count, 0u);
  // Chained selection over an empty candidate list.
  const SelVector still_none =
      SelectCompare(*ctx_, *col, CmpOp::kGreater, 0, 0, &none, "still");
  EXPECT_EQ(still_none.count, 0u);
  // Projection, aggregation, expression over empty inputs.
  const ddc::VAddr proj = ProjectGather(*ctx_, *col, none, "proj");
  EXPECT_EQ(AggrSum(*ctx_, proj, 0), 0);
  const ddc::VAddr rev = Expr<2>(
      *ctx_, {proj, proj}, 0, 45,
      [](int64_t p, int64_t d) { return p * (100 - d) / 100; }, "rev");
  (void)rev;
  const GroupHashResult g = GroupSumHash(*ctx_, proj, proj, 0, "g");
  EXPECT_EQ(g.groups, 0u);
  EXPECT_EQ(ChecksumHashGroups(*ctx_, g), 0);
}

TEST_F(OperatorsEdgeTest, FullMatchSelectionKeepsEveryRow) {
  auto col = MakeColumn({5, 5, 5, 5}, "c");
  const SelVector all =
      SelectCompare(*ctx_, *col, CmpOp::kEqual, 5, 0, nullptr, "all");
  EXPECT_EQ(all.count, 4u);
}

TEST_F(OperatorsEdgeTest, SingleRowTable) {
  auto keys = MakeColumn({42}, "k");
  const HashTable ht = HashBuild(*ctx_, *keys, nullptr, "ht");
  auto probe = MakeColumn({42, 41}, "p");
  const JoinResult jr = HashProbe(*ctx_, *probe, nullptr, ht, "jr");
  EXPECT_EQ(jr.count, 1u);
  EXPECT_EQ(ctx_->Load<int64_t>(jr.probe_rows), 0);
  EXPECT_EQ(ctx_->Load<int64_t>(jr.build_rows), 0);
}

TEST_F(OperatorsEdgeTest, EmptyBuildSideMeansNoMatches) {
  auto keys = MakeColumn({7}, "k");
  const SelVector empty{keys->addr(), 0};
  const HashTable ht = HashBuild(*ctx_, *keys, &empty, "ht");
  auto probe = MakeColumn({7, 7, 7}, "p");
  const JoinResult jr = HashProbe(*ctx_, *probe, nullptr, ht, "jr");
  EXPECT_EQ(jr.count, 0u);
}

TEST_F(OperatorsEdgeTest, ProbeWithEmptyCandidateList) {
  auto keys = MakeColumn({1, 2, 3}, "k");
  const HashTable ht = HashBuild(*ctx_, *keys, nullptr, "ht");
  auto probe = MakeColumn({1, 2, 3}, "p");
  const SelVector empty{probe->addr(), 0};
  const JoinResult jr = HashProbe(*ctx_, *probe, &empty, ht, "jr");
  EXPECT_EQ(jr.count, 0u);
}

TEST_F(OperatorsEdgeTest, NegativeKeysAndValues) {
  auto keys = MakeColumn({-5, -1000000007, 0, 17}, "k");
  const HashTable ht = HashBuild(*ctx_, *keys, nullptr, "ht");
  auto probe = MakeColumn({-1000000007, -5}, "p");
  const JoinResult jr = HashProbe(*ctx_, *probe, nullptr, ht, "jr");
  ASSERT_EQ(jr.count, 2u);
  EXPECT_EQ(ctx_->Load<int64_t>(jr.build_rows), 1);
  EXPECT_EQ(ctx_->Load<int64_t>(jr.build_rows + 8), 0);
}

TEST_F(OperatorsEdgeTest, MergeJoinEmptySelection) {
  auto fk = MakeColumn({0, 1, 2}, "fk");
  const SelVector empty{fk->addr(), 0};
  const ddc::VAddr out = MergeJoinDense(*ctx_, *fk, empty, 3, "out");
  (void)out;  // allocating an empty result must not crash
}

TEST_F(OperatorsEdgeTest, GroupSumDenseEmptyInputIsAllZero) {
  auto k = MakeColumn({0}, "k");
  const ddc::VAddr g =
      GroupSumDense(*ctx_, k->addr(), k->addr(), 0, 5, "g");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ctx_->Load<int64_t>(g + i * 8), 0);
  }
}

TEST_F(OperatorsEdgeTest, StrContainsEmptyNeedleMatchesEverything) {
  StringColumn col(ms_.get(), "s", 3, 8);
  col.RawSet(0, "abc");
  col.RawSet(1, "");
  col.RawSet(2, "xyz");
  const SelVector sel = SelectStrContains(*ctx_, col, "", nullptr, "sel");
  EXPECT_EQ(sel.count, 3u);
}

TEST_F(OperatorsEdgeTest, StrContainsNeedleLongerThanWidth) {
  StringColumn col(ms_.get(), "s", 2, 4);
  col.RawSet(0, "abcd");
  col.RawSet(1, "wxyz");
  const SelVector sel =
      SelectStrContains(*ctx_, col, "abcdefgh", nullptr, "sel");
  EXPECT_EQ(sel.count, 0u);
}

#ifndef NDEBUG
TEST_F(OperatorsEdgeTest, DuplicateBuildKeysAbortInDebug) {
  auto keys = MakeColumn({3, 3}, "k");
  EXPECT_DEATH((void)HashBuild(*ctx_, *keys, nullptr, "ht"),
               "duplicate build key");
}

TEST_F(OperatorsEdgeTest, UnsortedMergeJoinAbortsInDebug) {
  auto fk = MakeColumn({5, 2}, "fk");
  auto rows = MakeColumn({0, 1}, "rows");
  const SelVector sel{rows->addr(), 2};
  EXPECT_DEATH((void)MergeJoinDense(*ctx_, *fk, sel, 10, "out"),
               "not sorted");
}
#endif

}  // namespace
}  // namespace teleport::db
