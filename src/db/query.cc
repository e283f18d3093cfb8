#include "db/query.h"

#include <algorithm>

#include "common/logging.h"

namespace teleport::db {

namespace {

/// One plan's run: each operator goes through the wrapping harness and
/// appends its OperatorProfile.
class Plan {
 public:
  Plan(ddc::ExecutionContext& ctx, const QueryOptions& opts)
      : run_(ctx, opts, "db"), opts_(opts) {}

  /// Runs `body(c)`, which returns the operator's output row count.
  template <typename Fn>
  void Run(const std::string& name, OpKind kind, Fn&& body) {
    const bool pushed = opts_.ShouldPush(name);
    uint64_t rows_out = 0;
    const tp::CallCost cost = run_.Call(
        name, pushed, [&](ddc::ExecutionContext& c) { rows_out = body(c); });
    result_.ops.push_back({cost, name, kind, rows_out, pushed});
  }

  QueryResult Finish(int64_t checksum) {
    result_.checksum = checksum;
    result_.total_ns = run_.Finish();
    return std::move(result_);
  }

 private:
  tp::WrappedRun run_;
  const QueryOptions& opts_;
  QueryResult result_;
};

/// CPU operations per row of a two-input expression: interpreted BAT
/// passes including an integer division.
constexpr uint64_t kDivisionCpuOps = 45;

/// Revenue of a line: price * (100 - discount%) / 100.
int64_t Revenue(int64_t price, int64_t discount) {
  return price * (100 - discount) / 100;
}

}  // namespace

const OperatorProfile& QueryResult::Op(std::string_view name) const {
  for (const OperatorProfile& p : ops) {
    if (p.name == name) return p;
  }
  TELEPORT_CHECK(false) << "no operator named '" << name << "'";
  __builtin_unreachable();
}

QueryResult RunQFilter(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                       const QueryOptions& opts, int64_t date_bound) {
  Plan ex(ctx, opts);

  SelVector sel;
  ex.Run("Selection", OpKind::kSelection, [&](ddc::ExecutionContext& c) {
    sel = SelectCompare(c, db.lineitem.Col("l_shipdate"), CmpOp::kLess,
                        date_bound, 0, nullptr, "qf.sel");
    return sel.count;
  });

  ddc::VAddr quantities = 0;
  ex.Run("Projection", OpKind::kProjection, [&](ddc::ExecutionContext& c) {
    quantities = ProjectGather(c, db.lineitem.Col("l_quantity"), sel,
                               "qf.quantity");
    return sel.count;
  });

  int64_t sum = 0;
  ex.Run("Aggregation", OpKind::kAggregation, [&](ddc::ExecutionContext& c) {
    sum = AggrSum(c, quantities, sel.count);
    return 1;
  });

  return ex.Finish(sum);
}

QueryResult RunQ1(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                  const QueryOptions& opts) {
  Plan ex(ctx, opts);
  const int64_t d = kDateDomainDays - 90;  // shipdate <= domain - 90 days

  SelVector sel;
  ex.Run("Selection", OpKind::kSelection, [&](ddc::ExecutionContext& c) {
    sel = SelectCompare(c, db.lineitem.Col("l_shipdate"), CmpOp::kLess, d, 0,
                        nullptr, "q1.sel");
    return sel.count;
  });

  ddc::VAddr qty = 0, price = 0, disc = 0, flag = 0;
  ex.Run("Projection", OpKind::kProjection, [&](ddc::ExecutionContext& c) {
    qty = ProjectGather(c, db.lineitem.Col("l_quantity"), sel, "q1.qty");
    price = ProjectGather(c, db.lineitem.Col("l_extendedprice"), sel,
                          "q1.price");
    disc = ProjectGather(c, db.lineitem.Col("l_discount"), sel, "q1.disc");
    flag = ProjectGather(c, db.lineitem.Col("l_returnflag"), sel, "q1.flag");
    return sel.count;
  });

  ddc::VAddr revenue = 0, ones = 0;
  ex.Run("Expression", OpKind::kExpression, [&](ddc::ExecutionContext& c) {
    revenue = Expr<2>(c, {price, disc}, sel.count, kDivisionCpuOps, Revenue,
                      "q1.revenue");
    ones = Expr<0>(c, {}, sel.count, 1, [] { return int64_t{1}; }, "q1.ones");
    return sel.count;
  });

  constexpr uint64_t kFlags = 3;
  int64_t checksum = 0;
  ex.Run("Aggregation(group)", OpKind::kGroupBy,
         [&](ddc::ExecutionContext& c) {
           const ddc::VAddr sum_qty =
               GroupSumDense(c, flag, qty, sel.count, kFlags, "q1.g_qty");
           const ddc::VAddr sum_rev =
               GroupSumDense(c, flag, revenue, sel.count, kFlags, "q1.g_rev");
           const ddc::VAddr counts =
               GroupSumDense(c, flag, ones, sel.count, kFlags, "q1.g_cnt");
           checksum = ChecksumDenseGroups(c, sum_qty, kFlags) +
                      ChecksumDenseGroups(c, sum_rev, kFlags) +
                      ChecksumDenseGroups(c, counts, kFlags);
           return kFlags;
         });

  return ex.Finish(checksum);
}

QueryResult RunQ6(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                  const QueryOptions& opts) {
  Plan ex(ctx, opts);
  const int64_t d1 = 2 * kDaysPerYear;  // one TPC-H year

  SelVector sel_date;
  ex.Run("Selection(shipdate)", OpKind::kSelection,
         [&](ddc::ExecutionContext& c) {
           sel_date = SelectCompare(c, db.lineitem.Col("l_shipdate"),
                                    CmpOp::kRange, d1, d1 + kDaysPerYear - 1,
                                    nullptr, "q6.sel_date");
           return sel_date.count;
         });

  SelVector sel_disc;
  ex.Run("Selection(discount)", OpKind::kSelection,
         [&](ddc::ExecutionContext& c) {
           sel_disc = SelectCompare(c, db.lineitem.Col("l_discount"),
                                    CmpOp::kRange, 5, 7, &sel_date,
                                    "q6.sel_disc");
           return sel_disc.count;
         });

  SelVector sel_qty;
  ex.Run("Selection(quantity)", OpKind::kSelection,
         [&](ddc::ExecutionContext& c) {
           sel_qty = SelectCompare(c, db.lineitem.Col("l_quantity"),
                                   CmpOp::kLess, 24, 0, &sel_disc,
                                   "q6.sel_qty");
           return sel_qty.count;
         });

  ddc::VAddr price = 0, disc = 0;
  ex.Run("Projection", OpKind::kProjection, [&](ddc::ExecutionContext& c) {
    price = ProjectGather(c, db.lineitem.Col("l_extendedprice"), sel_qty,
                          "q6.price");
    disc = ProjectGather(c, db.lineitem.Col("l_discount"), sel_qty,
                         "q6.disc");
    return sel_qty.count;
  });

  ddc::VAddr revenue = 0;
  ex.Run("Expression", OpKind::kExpression, [&](ddc::ExecutionContext& c) {
    revenue = Expr<2>(
        c, {price, disc}, sel_qty.count, kDivisionCpuOps,
        [](int64_t p, int64_t dc) { return p * dc / 100; }, "q6.revenue");
    return sel_qty.count;
  });

  int64_t sum = 0;
  ex.Run("Aggregation", OpKind::kAggregation, [&](ddc::ExecutionContext& c) {
    sum = AggrSum(c, revenue, sel_qty.count);
    return 1;
  });

  return ex.Finish(sum);
}

QueryResult RunQ3(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                  const QueryOptions& opts) {
  Plan ex(ctx, opts);
  const int64_t d = kDateDomainDays / 2;  // the Q3 pivot date

  SelVector sel_cust;
  ex.Run("Selection(customer)", OpKind::kSelection,
         [&](ddc::ExecutionContext& c) {
           sel_cust = SelectCompare(c, db.customer.Col("c_mktsegment"),
                                    CmpOp::kEqual, kSegmentBuilding, 0,
                                    nullptr, "q3.sel_cust");
           return sel_cust.count;
         });

  SelVector sel_ord;
  ex.Run("Selection(orderdate)", OpKind::kSelection,
         [&](ddc::ExecutionContext& c) {
           sel_ord = SelectCompare(c, db.orders.Col("o_orderdate"),
                                   CmpOp::kLess, d, 0, nullptr, "q3.sel_ord");
           return sel_ord.count;
         });

  JoinResult j_cust;
  ex.Run("HashJoin(customer)", OpKind::kHashJoin,
         [&](ddc::ExecutionContext& c) {
           const HashTable ht = HashBuild(c, db.customer.Col("c_custkey"),
                                          &sel_cust, "q3.ht_cust");
           j_cust = HashProbe(c, db.orders.Col("o_custkey"), &sel_ord, ht,
                              "q3.j_cust");
           return j_cust.count;
         });

  SelVector sel_line;
  ex.Run("Selection(shipdate)", OpKind::kSelection,
         [&](ddc::ExecutionContext& c) {
           sel_line = SelectCompare(c, db.lineitem.Col("l_shipdate"),
                                    CmpOp::kGreater, d, 0, nullptr,
                                    "q3.sel_line");
           return sel_line.count;
         });

  JoinResult j_ord;
  ex.Run("HashJoin(orders)", OpKind::kHashJoin,
         [&](ddc::ExecutionContext& c) {
           const SelVector matched{j_cust.probe_rows, j_cust.count};
           const HashTable ht = HashBuild(c, db.orders.Col("o_orderkey"),
                                          &matched, "q3.ht_ord");
           j_ord = HashProbe(c, db.lineitem.Col("l_orderkey"), &sel_line, ht,
                             "q3.j_ord");
           return j_ord.count;
         });

  const SelVector line_rows{j_ord.probe_rows, j_ord.count};
  ddc::VAddr price = 0, disc = 0, okeys = 0;
  ex.Run("Projection", OpKind::kProjection, [&](ddc::ExecutionContext& c) {
    price = ProjectGather(c, db.lineitem.Col("l_extendedprice"), line_rows,
                          "q3.price");
    disc = ProjectGather(c, db.lineitem.Col("l_discount"), line_rows,
                         "q3.disc");
    okeys = ProjectGather(c, db.lineitem.Col("l_orderkey"), line_rows,
                          "q3.okeys");
    return j_ord.count;
  });

  ddc::VAddr revenue = 0;
  ex.Run("Expression", OpKind::kExpression, [&](ddc::ExecutionContext& c) {
    revenue = Expr<2>(c, {price, disc}, j_ord.count, kDivisionCpuOps, Revenue,
                      "q3.revenue");
    return j_ord.count;
  });

  int64_t checksum = 0;
  ex.Run("GroupBy", OpKind::kGroupBy, [&](ddc::ExecutionContext& c) {
    const GroupHashResult groups =
        GroupSumHash(c, okeys, revenue, j_ord.count, "q3.groups");
    checksum = ChecksumHashGroups(c, groups);
    return groups.groups;
  });

  return ex.Finish(checksum);
}

QueryResult RunQ9(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                  const QueryOptions& opts) {
  Plan ex(ctx, opts);
  constexpr int64_t kCompositeShift = 1 << 20;

  SelVector sel_part;
  ex.Run("Selection(p_name)", OpKind::kSelection,
         [&](ddc::ExecutionContext& c) {
           sel_part = SelectStrContains(c, db.part.StrCol("p_name"), "green",
                                        nullptr, "q9.sel_part");
           return sel_part.count;
         });

  JoinResult j_part;
  ex.Run("HashJoin(part)", OpKind::kHashJoin, [&](ddc::ExecutionContext& c) {
    const HashTable ht =
        HashBuild(c, db.part.Col("p_partkey"), &sel_part, "q9.ht_part");
    j_part = HashProbe(c, db.lineitem.Col("l_partkey"), nullptr, ht,
                       "q9.j_part");
    return j_part.count;
  });

  const SelVector line1{j_part.probe_rows, j_part.count};
  JoinResult j_ps;
  ex.Run("HashJoin(partsupp)", OpKind::kHashJoin,
         [&](ddc::ExecutionContext& c) {
           const HashTable ht = HashBuild(
               c,
               {db.partsupp.Col("ps_partkey"), db.partsupp.Col("ps_suppkey"),
                kCompositeShift},
               nullptr, "q9.ht_ps");
           j_ps = HashProbe(c,
                            {db.lineitem.Col("l_partkey"),
                             db.lineitem.Col("l_suppkey"), kCompositeShift},
                            &line1, ht, "q9.j_ps");
           return j_ps.count;
         });

  const SelVector line2{j_ps.probe_rows, j_ps.count};
  const uint64_t n = j_ps.count;
  JoinResult j_supp;
  ex.Run("HashJoin(supplier)", OpKind::kHashJoin,
         [&](ddc::ExecutionContext& c) {
           const HashTable ht = HashBuild(c, db.supplier.Col("s_suppkey"),
                                          nullptr, "q9.ht_supp");
           j_supp = HashProbe(c, db.lineitem.Col("l_suppkey"), &line2, ht,
                              "q9.j_supp");
           return j_supp.count;
         });

  ddc::VAddr order_rows = 0;
  ex.Run("MergeJoin(orders)", OpKind::kMergeJoin,
         [&](ddc::ExecutionContext& c) {
           order_rows = MergeJoinDense(c, db.lineitem.Col("l_orderkey"), line2,
                                       db.orders.rows, "q9.orows");
           return n;
         });

  ddc::VAddr price = 0, disc = 0, qty = 0, cost = 0, nation = 0, odate = 0;
  ex.Run("Projection", OpKind::kProjection, [&](ddc::ExecutionContext& c) {
    price = ProjectGather(c, db.lineitem.Col("l_extendedprice"), line2,
                          "q9.price");
    disc = ProjectGather(c, db.lineitem.Col("l_discount"), line2, "q9.disc");
    qty = ProjectGather(c, db.lineitem.Col("l_quantity"), line2, "q9.qty");
    const SelVector ps_rows{j_ps.build_rows, j_ps.count};
    cost = ProjectGather(c, db.partsupp.Col("ps_supplycost"), ps_rows,
                         "q9.cost");
    const SelVector supp_rows{j_supp.build_rows, j_supp.count};
    nation = ProjectGather(c, db.supplier.Col("s_nationkey"), supp_rows,
                           "q9.nation");
    const SelVector o_rows{order_rows, n};
    odate = ProjectGather(c, db.orders.Col("o_orderdate"), o_rows,
                          "q9.odate");
    return n;
  });

  ddc::VAddr amount = 0, gkeys = 0;
  ex.Run("Expression", OpKind::kExpression, [&](ddc::ExecutionContext& c) {
    // Profit: several BAT passes (two multiplications, a division and a
    // subtraction).
    amount = Expr<4>(
        c, {price, disc, cost, qty}, n, 60,
        [](int64_t p, int64_t dc, int64_t co, int64_t q) {
          return Revenue(p, dc) - co * q;
        },
        "q9.amount");
    // Group key: nation * 8 + year(o_orderdate); 25 nations x 8 years. The
    // division by days-per-year dominates its cost.
    gkeys = Expr<2>(
        c, {nation, odate}, n, 14,
        [](int64_t nat, int64_t od) { return nat * 8 + od / kDaysPerYear; },
        "q9.gkeys");
    return n;
  });

  constexpr uint64_t kDomain = 25 * 8;
  int64_t checksum = 0;
  ex.Run("Aggregation(group)", OpKind::kGroupBy,
         [&](ddc::ExecutionContext& c) {
           const ddc::VAddr groups =
               GroupSumDense(c, gkeys, amount, n, kDomain, "q9.groups");
           checksum = ChecksumDenseGroups(c, groups, kDomain);
           return kDomain;
         });

  return ex.Finish(checksum);
}

std::set<std::string> DefaultTeleportOps(std::string_view query) {
  // The bandwidth-intensive operators §5.1/§7.1 pushes for each query.
  if (query == "qfilter") {
    return {"Selection", "Projection"};
  }
  if (query == "q1") {
    return {"Selection", "Projection"};
  }
  if (query == "q6") {
    return {"Selection(shipdate)", "Selection(discount)",
            "Selection(quantity)", "Projection"};
  }
  if (query == "q3") {
    return {"Selection(shipdate)", "HashJoin(orders)", "Projection"};
  }
  if (query == "q9") {
    return {"Selection(p_name)", "HashJoin(part)", "HashJoin(partsupp)",
            "HashJoin(supplier)", "Projection"};
  }
  TELEPORT_CHECK(false) << "unknown query '" << query << "'";
  __builtin_unreachable();
}

std::vector<std::string> RankByMemoryIntensity(const QueryResult& profile) {
  std::vector<const OperatorProfile*> ops;
  ops.reserve(profile.ops.size());
  for (const OperatorProfile& p : profile.ops) ops.push_back(&p);
  std::stable_sort(ops.begin(), ops.end(),
                   [](const OperatorProfile* a, const OperatorProfile* b) {
                     return a->MemoryIntensity() > b->MemoryIntensity();
                   });
  std::vector<std::string> names;
  names.reserve(ops.size());
  for (const OperatorProfile* p : ops) names.push_back(p->name);
  return names;
}

}  // namespace teleport::db
