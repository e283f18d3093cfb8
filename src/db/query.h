#ifndef TELEPORT_DB_QUERY_H_
#define TELEPORT_DB_QUERY_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "db/operators.h"
#include "db/tpch.h"
#include "teleport/wrap.h"

namespace teleport::db {

/// Physical operator kinds appearing in the reproduced plans (the Fig 10
/// vocabulary).
enum class OpKind {
  kSelection,
  kProjection,
  kAggregation,
  kHashJoin,
  kMergeJoin,
  kExpression,
  kGroupBy,
};

/// Per-operator measurement collected during a query run: the operator
/// call's cost on the caller (wall time on its virtual clock, remote-memory
/// traffic, CPU operations), and whether it executed via pushdown. The
/// basis of Figs 10, 12, 18 and the §7.4 memory-intensity metric.
struct OperatorProfile : tp::CallCost {
  std::string name;
  OpKind kind = OpKind::kSelection;
  uint64_t rows_out = 0;
  bool pushed = false;

  /// §7.4 memory intensity: remote traffic per second of execution.
  double MemoryIntensity() const {
    return time_ns == 0 ? 0.0
                        : static_cast<double>(remote_bytes) /
                              ToSeconds(time_ns);
  }
};

/// Result of one query execution.
struct QueryResult {
  int64_t checksum = 0;   ///< platform-independent result digest
  Nanos total_ns = 0;     ///< caller wall time for the whole plan
  std::vector<OperatorProfile> ops;

  const OperatorProfile& Op(std::string_view name) const;
};

/// How to execute a plan: with `runtime` set, operators whose names appear
/// in `push_ops` (or all of them if `push_all`) run via the pushdown
/// syscall; everything else executes in the calling context.
struct QueryOptions : tp::WrapOptions {
  std::set<std::string> push_ops;
  bool push_all = false;

  bool ShouldPush(const std::string& op_name) const {
    return runtime != nullptr &&
           (push_all || push_ops.count(op_name) > 0);
  }
};

/// Q_filter (§5.1):
///   SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate < $DATE
/// Plan: Selection -> Projection -> Aggregation (the Fig 12 operators).
QueryResult RunQFilter(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                       const QueryOptions& opts,
                       int64_t date_bound = kDateDomainDays / 2);

/// TPC-H Q1 (pricing summary report): selection over lineitem, wide
/// projection, revenue expression, and a grouped aggregation by
/// l_returnflag computing three aggregates.
QueryResult RunQ1(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                  const QueryOptions& opts);

/// TPC-H Q6 (forecasting revenue change): three chained selections over
/// lineitem, a projection, an expression, and a sum.
QueryResult RunQ6(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                  const QueryOptions& opts);

/// TPC-H Q3 (shipping priority): customer/orders/lineitem joins with a
/// GROUP BY l_orderkey.
QueryResult RunQ3(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                  const QueryOptions& opts);

/// TPC-H Q9 (product type profit): the paper's most expensive query —
/// five-table join with a LIKE selection, merge join on the physical
/// lineitem order, profit expression, and nation x year aggregation.
/// Exactly eight profiled operators, matching §7.4's pushdown-level sweep.
QueryResult RunQ9(ddc::ExecutionContext& ctx, const TpchDatabase& db,
                  const QueryOptions& opts);

/// The operators §5/§7 pushes for each query on the TELEPORT platform
/// (the bandwidth-intensive subset, not the whole plan).
std::set<std::string> DefaultTeleportOps(std::string_view query);

/// Orders a query's operators by decreasing §7.4 memory intensity, using a
/// profiling run's result (typically from the base DDC).
std::vector<std::string> RankByMemoryIntensity(const QueryResult& profile);

}  // namespace teleport::db

#endif  // TELEPORT_DB_QUERY_H_
