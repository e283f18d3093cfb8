#ifndef TELEPORT_DB_OPERATORS_H_
#define TELEPORT_DB_OPERATORS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "db/column.h"
#include "ddc/memory_system.h"

namespace teleport::db {

/// A candidate list (MonetDB-style): row ids, ascending, in DDC space.
/// Operators that take an optional SelVector scan the whole column when it
/// is absent.
struct SelVector {
  ddc::VAddr addr = 0;
  uint64_t count = 0;
};

/// Comparison flavor for SelectCompare.
enum class CmpOp { kLess, kGreater, kRange /* lo <= v <= hi */, kEqual };

/// Selection: scans `col` (restricted to `cand` when present), applies the
/// predicate, and materializes matching row ids to a temporary in DDC
/// space — the MonetDB selection pattern of §2.3/Fig 4.
SelVector SelectCompare(ddc::ExecutionContext& ctx, const Column& col,
                        CmpOp op, int64_t lo, int64_t hi,
                        const SelVector* cand, const std::string& out_name);

/// Selection over a string column: substring containment (LIKE '%needle%').
SelVector SelectStrContains(ddc::ExecutionContext& ctx,
                            const StringColumn& col, std::string_view needle,
                            const SelVector* cand,
                            const std::string& out_name);

/// Projection: gathers col[sel[i]] into a dense temporary value array.
/// Returns its address; length is sel.count.
ddc::VAddr ProjectGather(ddc::ExecutionContext& ctx, const Column& col,
                         const SelVector& sel, const std::string& out_name);

/// Aggregation: sum of a dense value array.
int64_t AggrSum(ddc::ExecutionContext& ctx, ddc::VAddr values, uint64_t count);

/// Expression: out[i] = fn(in_0[i], ..., in_{N-1}[i]) over N dense input
/// arrays. Per row it loads the inputs in order, each through its own
/// cursor, stores the result and then charges `cpu_ops_per_row`, the cost
/// of the interpreted BAT passes the expression stands for.
template <size_t N, typename Fn>
ddc::VAddr Expr(ddc::ExecutionContext& ctx,
                const std::array<ddc::VAddr, N>& inputs, uint64_t count,
                uint64_t cpu_ops_per_row, Fn&& fn,
                const std::string& out_name) {
  const ddc::VAddr out = ctx.memory_system().space().Alloc(
      std::max<uint64_t>(8, count * 8), out_name);
  // One cursor per input (a Cursor has no default constructor).
  auto in_cur = [&]<size_t... I>(std::index_sequence<I...>) {
    return std::array<ddc::Cursor, N>{((void)I, ddc::Cursor(ctx))...};
  }(std::make_index_sequence<N>());
  ddc::Cursor out_cur(ctx);
  std::array<int64_t, N> v{};
  for (uint64_t i = 0; i < count; ++i) {
    for (size_t k = 0; k < N; ++k) {
      v[k] = in_cur[k].template Load<int64_t>(inputs[k] + i * 8);
    }
    out_cur.Store<int64_t>(out + i * 8, std::apply(fn, v));
    ctx.ChargeCpu(cpu_ops_per_row);
  }
  return out;
}

/// Open-addressing hash table over unique int64 keys, stored in DDC space.
/// Slot layout: {key, payload}; empty slots hold kEmptyKey.
struct HashTable {
  ddc::VAddr addr = 0;
  uint64_t slots = 0;
  static constexpr int64_t kEmptyKey = INT64_MIN;
};

/// A hash-join key: one column (a Column converts to it), or the composite
/// hi[row] * shift + lo[row] over two columns (the partsupp (partkey,
/// suppkey) join). Read row by row with one cursor per column, hi first.
struct JoinKey {
  JoinKey(const Column& col) : hi(&col) {}
  JoinKey(const Column& hi_col, const Column& lo_col, int64_t key_shift)
      : hi(&hi_col), lo(&lo_col), shift(key_shift) {}

  const Column* hi;
  const Column* lo = nullptr;
  int64_t shift = 0;
};

/// Build side of a hash join: inserts (key[row], row) for each candidate
/// row (all rows when `cand` is null). Keys must be unique.
HashTable HashBuild(ddc::ExecutionContext& ctx, const JoinKey& key,
                    const SelVector* cand, const std::string& out_name);

/// Matched row pairs of a join, parallel arrays in DDC space.
struct JoinResult {
  ddc::VAddr probe_rows = 0;
  ddc::VAddr build_rows = 0;
  uint64_t count = 0;
};

/// Probe side of a hash join: for each candidate probe row, looks the key
/// up and emits (probe_row, build_row) on a match. §2.2's random-access
/// pattern: every probe is a potential cache miss in a DDC.
JoinResult HashProbe(ddc::ExecutionContext& ctx, const JoinKey& key,
                     const SelVector* cand, const HashTable& ht,
                     const std::string& out_name);

/// Merge join of a dense sorted dimension key (o_orderkey = 0..N-1) with a
/// non-decreasing foreign-key sequence fk[sel[i]] (lineitem is physically
/// ordered by l_orderkey). Emits, per candidate row, the matching dimension
/// row id. Both sides stream sequentially — the access pattern that makes
/// merge join cheap even in a DDC (Fig 10).
ddc::VAddr MergeJoinDense(ddc::ExecutionContext& ctx, const Column& fk,
                          const SelVector& sel, uint64_t dim_rows,
                          const std::string& out_name);

/// Grouped sum with a small dense key domain: groups[key[i]] += value[i].
/// Returns the dense group array address (domain int64 slots).
ddc::VAddr GroupSumDense(ddc::ExecutionContext& ctx, ddc::VAddr keys,
                         ddc::VAddr values, uint64_t count, uint64_t domain,
                         const std::string& out_name);

/// Grouped sum via open addressing for large sparse key domains (Q3's
/// GROUP BY l_orderkey). Returns the hash table of {key, sum} slots and
/// the number of distinct groups.
struct GroupHashResult : HashTable {
  uint64_t groups = 0;
};
GroupHashResult GroupSumHash(ddc::ExecutionContext& ctx, ddc::VAddr keys,
                             ddc::VAddr values, uint64_t count,
                             const std::string& out_name);

/// Order-preserving checksum of (key, sum) pairs in a dense group array —
/// used to compare query results across platforms bit-for-bit.
int64_t ChecksumDenseGroups(ddc::ExecutionContext& ctx, ddc::VAddr groups,
                            uint64_t domain);

/// Checksum of a hash-group result (order independent: sums over slots).
int64_t ChecksumHashGroups(ddc::ExecutionContext& ctx,
                           const GroupHashResult& g);

}  // namespace teleport::db

#endif  // TELEPORT_DB_OPERATORS_H_
