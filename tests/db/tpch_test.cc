#include "db/tpch.h"

#include <set>
#include <string_view>

#include <gtest/gtest.h>

namespace teleport::db {
namespace {

ddc::DdcConfig LocalConfig() {
  ddc::DdcConfig c;
  c.platform = ddc::Platform::kLocal;
  return c;
}

class TpchTest : public ::testing::Test {
 protected:
  TpchTest()
      : ms_(LocalConfig(), sim::CostParams::Default(), 256 << 20) {
    TpchConfig cfg;
    cfg.scale_factor = 1.0;
    db_ = GenerateTpch(&ms_, cfg);
  }

  ddc::MemorySystem ms_;
  std::unique_ptr<TpchDatabase> db_;
};

TEST_F(TpchTest, RowCountsScale) {
  EXPECT_EQ(db_->lineitem.rows, 60'000u);
  EXPECT_EQ(db_->orders.rows, 15'000u);
  EXPECT_EQ(db_->customer.rows, 1'500u);
  EXPECT_EQ(db_->part.rows, 2'000u);
  EXPECT_EQ(db_->partsupp.rows, 8'000u);
  EXPECT_EQ(db_->nation.rows, 25u);
}

TEST_F(TpchTest, LineitemSortedByOrderkey) {
  const int64_t* ok = db_->lineitem.Col("l_orderkey").raw();
  for (uint64_t i = 1; i < db_->lineitem.rows; ++i) {
    ASSERT_GE(ok[i], ok[i - 1]) << "at row " << i;
  }
  // Dense coverage: first and last orders both appear.
  EXPECT_EQ(ok[0], 0);
  EXPECT_EQ(ok[db_->lineitem.rows - 1],
            static_cast<int64_t>(db_->orders.rows - 1));
}

TEST_F(TpchTest, ForeignKeysInDomain) {
  const auto& li = db_->lineitem;
  const int64_t* pk = li.Col("l_partkey").raw();
  const int64_t* sk = li.Col("l_suppkey").raw();
  const int64_t* ok = li.Col("l_orderkey").raw();
  for (uint64_t i = 0; i < li.rows; ++i) {
    ASSERT_LT(pk[i], static_cast<int64_t>(db_->part.rows));
    ASSERT_LT(sk[i], static_cast<int64_t>(db_->supplier.rows));
    ASSERT_LT(ok[i], static_cast<int64_t>(db_->orders.rows));
  }
  const int64_t* ck = db_->orders.Col("o_custkey").raw();
  for (uint64_t i = 0; i < db_->orders.rows; ++i) {
    ASSERT_LT(ck[i], static_cast<int64_t>(db_->customer.rows));
  }
}

TEST_F(TpchTest, EveryLineitemHasPartsuppMatch) {
  // Q9's partsupp join must not drop rows: (l_partkey, l_suppkey) pairs
  // must exist in partsupp.
  std::set<std::pair<int64_t, int64_t>> ps;
  const int64_t* ppk = db_->partsupp.Col("ps_partkey").raw();
  const int64_t* psk = db_->partsupp.Col("ps_suppkey").raw();
  for (uint64_t i = 0; i < db_->partsupp.rows; ++i) {
    ps.emplace(ppk[i], psk[i]);
  }
  EXPECT_EQ(ps.size(), db_->partsupp.rows) << "composite keys must be unique";
  const int64_t* lpk = db_->lineitem.Col("l_partkey").raw();
  const int64_t* lsk = db_->lineitem.Col("l_suppkey").raw();
  for (uint64_t i = 0; i < db_->lineitem.rows; i += 97) {  // sample
    ASSERT_TRUE(ps.count({lpk[i], lsk[i]}))
        << "lineitem row " << i << " has no partsupp entry";
  }
}

TEST_F(TpchTest, ShipdateFollowsOrderdateWithinDomain) {
  const int64_t* sd = db_->lineitem.Col("l_shipdate").raw();
  const int64_t* ok = db_->lineitem.Col("l_orderkey").raw();
  const int64_t* od = db_->orders.Col("o_orderdate").raw();
  for (uint64_t i = 0; i < db_->lineitem.rows; ++i) {
    ASSERT_GT(sd[i], od[ok[i]]);
    ASSERT_LT(sd[i], kDateDomainDays);
  }
}

TEST_F(TpchTest, GreenPartsAreASelectiveFraction) {
  const StringColumn& name = db_->part.StrCol("p_name");
  auto ctx = ms_.CreateContext(ddc::Pool::kCompute);
  ddc::Cursor cur(*ctx);
  uint64_t green = 0;
  for (uint64_t i = 0; i < db_->part.rows; ++i) {
    if (name.Get(cur, i).find("green") != std::string_view::npos) ++green;
  }
  const double frac =
      static_cast<double>(green) / static_cast<double>(db_->part.rows);
  EXPECT_GT(frac, 0.02);
  EXPECT_LT(frac, 0.35);
}

TEST_F(TpchTest, DeterministicAcrossRuns) {
  ddc::MemorySystem ms2(LocalConfig(), sim::CostParams::Default(), 256 << 20);
  TpchConfig cfg;
  cfg.scale_factor = 1.0;
  auto db2 = GenerateTpch(&ms2, cfg);
  const int64_t* a = db_->lineitem.Col("l_extendedprice").raw();
  const int64_t* b = db2->lineitem.Col("l_extendedprice").raw();
  for (uint64_t i = 0; i < db_->lineitem.rows; ++i) ASSERT_EQ(a[i], b[i]);
}

TEST_F(TpchTest, SeedChangesData) {
  ddc::MemorySystem ms2(LocalConfig(), sim::CostParams::Default(), 256 << 20);
  TpchConfig cfg;
  cfg.scale_factor = 1.0;
  cfg.seed = 999;
  auto db2 = GenerateTpch(&ms2, cfg);
  const int64_t* a = db_->lineitem.Col("l_extendedprice").raw();
  const int64_t* b = db2->lineitem.Col("l_extendedprice").raw();
  bool any_diff = false;
  for (uint64_t i = 0; i < db_->lineitem.rows && !any_diff; ++i) {
    any_diff = a[i] != b[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(TpchTest, EstimateCoversActualAllocation) {
  TpchConfig cfg;
  cfg.scale_factor = 1.0;
  EXPECT_GE(EstimateTpchBytes(cfg) + (64 << 10) * 16, db_->TotalBytes());
  EXPECT_GT(db_->TotalBytes(), 4u << 20);  // ~5 MB at SF 1
}

}  // namespace
}  // namespace teleport::db
