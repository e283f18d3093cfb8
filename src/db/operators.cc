#include "db/operators.h"

#include "common/logging.h"
#include "common/rng.h"

namespace teleport::db {

namespace {

constexpr uint64_t kSlotBytes = 16;  // {int64 key, int64 payload}

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

uint64_t HashKey(int64_t key) { return Mix64(static_cast<uint64_t>(key)); }

/// A dense int64 output array of `rows` rows (at least one slot).
ddc::VAddr AllocRows(ddc::ExecutionContext& ctx, uint64_t rows,
                     const std::string& name) {
  return ctx.memory_system().space().Alloc(std::max<uint64_t>(8, rows * 8),
                                           name);
}

/// Iterates candidate rows: calls fn(row) for each row in `cand`, or for
/// every row in [0, rows) when cand is null. The candidate list itself is
/// read through its own cursor (it lives in DDC space too and is walked
/// sequentially).
template <typename Fn>
void ForEachCandidate(ddc::ExecutionContext& ctx, const SelVector* cand,
                      uint64_t rows, Fn&& fn) {
  if (cand == nullptr) {
    for (uint64_t r = 0; r < rows; ++r) fn(r);
    return;
  }
  ddc::Cursor cand_cur(ctx);
  for (uint64_t i = 0; i < cand->count; ++i) {
    const int64_t row = cand_cur.Load<int64_t>(cand->addr + i * 8);
    fn(static_cast<uint64_t>(row));
  }
}

/// The selection kernel: materializes, in order, every candidate row for
/// which `match(row)` holds.
template <typename Match>
SelVector SelectWhere(ddc::ExecutionContext& ctx, uint64_t rows,
                      const SelVector* cand, const std::string& out_name,
                      Match&& match) {
  SelVector out;
  out.addr = AllocRows(ctx, cand ? cand->count : rows, out_name);
  ddc::Cursor out_cur(ctx);
  ForEachCandidate(ctx, cand, rows, [&](uint64_t row) {
    if (match(row)) {
      out_cur.Store<int64_t>(out.addr + out.count * 8,
                             static_cast<int64_t>(row));
      ++out.count;
    }
  });
  return out;
}

HashTable AllocHashTable(ddc::ExecutionContext& ctx, uint64_t n,
                         const std::string& out_name) {
  HashTable ht;
  ht.slots = NextPow2(std::max<uint64_t>(16, 2 * n));
  ht.addr =
      ctx.memory_system().space().Alloc(ht.slots * kSlotBytes, out_name);
  // Initialize empty sentinels (MonetDB also materializes its hash part).
  ddc::Cursor init_cur(ctx);
  for (uint64_t s = 0; s < ht.slots; ++s) {
    init_cur.Store<int64_t>(ht.addr + s * kSlotBytes, HashTable::kEmptyKey);
  }
  ctx.ChargeCpu(ht.slots);
  return ht;
}

/// A hash table slot: its address and the key it holds.
struct Slot {
  ddc::VAddr addr;
  int64_t key;

  bool empty() const { return key == HashTable::kEmptyKey; }
};

/// Linear probing from `key`'s hash slot, each probe charged: returns the
/// first slot that holds `key` or is empty. The random slots stay on the
/// plain context path (a cursor's pin would only churn).
Slot FindSlot(ddc::ExecutionContext& ctx, const HashTable& ht, int64_t key) {
  const uint64_t mask = ht.slots - 1;
  for (uint64_t s = HashKey(key) & mask;; s = (s + 1) & mask) {
    const ddc::VAddr addr = ht.addr + s * kSlotBytes;
    const Slot slot{addr, ctx.Load<int64_t>(addr)};
    ctx.ChargeCpu(3);
    if (slot.empty() || slot.key == key) return slot;
  }
}

/// Reads a JoinKey row by row, one cursor per column, hi before lo.
class KeyReader {
 public:
  KeyReader(ddc::ExecutionContext& ctx, JoinKey key)
      : key_(key), hi_cur_(ctx), lo_cur_(ctx) {}

  uint64_t rows() const { return key_.hi->rows(); }

  int64_t Get(uint64_t row) {
    const int64_t hi = key_.hi->Get(hi_cur_, row);
    if (key_.lo == nullptr) return hi;
    return hi * key_.shift + key_.lo->Get(lo_cur_, row);
  }

 private:
  JoinKey key_;
  ddc::Cursor hi_cur_;
  ddc::Cursor lo_cur_;
};

}  // namespace

SelVector SelectCompare(ddc::ExecutionContext& ctx, const Column& col,
                        CmpOp op, int64_t lo, int64_t hi,
                        const SelVector* cand, const std::string& out_name) {
  ddc::Cursor col_cur(ctx);
  return SelectWhere(ctx, col.rows(), cand, out_name, [&](uint64_t row) {
    const int64_t v = col.Get(col_cur, row);
    bool match = false;
    switch (op) {
      case CmpOp::kLess:
        match = v < lo;
        break;
      case CmpOp::kGreater:
        match = v > lo;
        break;
      case CmpOp::kRange:
        match = v >= lo && v <= hi;
        break;
      case CmpOp::kEqual:
        match = v == lo;
        break;
    }
    ctx.ChargeCpu(2);
    return match;
  });
}

SelVector SelectStrContains(ddc::ExecutionContext& ctx,
                            const StringColumn& col, std::string_view needle,
                            const SelVector* cand,
                            const std::string& out_name) {
  ddc::Cursor col_cur(ctx);
  return SelectWhere(ctx, col.rows(), cand, out_name, [&](uint64_t row) {
    const std::string_view s = col.Get(col_cur, row);
    ctx.ChargeCpu(col.width());  // byte-wise substring scan
    return s.find(needle) != std::string_view::npos;
  });
}

ddc::VAddr ProjectGather(ddc::ExecutionContext& ctx, const Column& col,
                         const SelVector& sel, const std::string& out_name) {
  const ddc::VAddr out = AllocRows(ctx, sel.count, out_name);
  ddc::Cursor sel_cur(ctx);
  ddc::Cursor col_cur(ctx);
  ddc::Cursor out_cur(ctx);
  for (uint64_t i = 0; i < sel.count; ++i) {
    const int64_t row = sel_cur.Load<int64_t>(sel.addr + i * 8);
    // Gathered rows ascend (selection vectors are sorted), so the column
    // cursor still sees page-local runs.
    const int64_t v = col.Get(col_cur, static_cast<uint64_t>(row));
    out_cur.Store<int64_t>(out + i * 8, v);
    ctx.ChargeCpu(1);
  }
  return out;
}

int64_t AggrSum(ddc::ExecutionContext& ctx, ddc::VAddr values,
                uint64_t count) {
  int64_t sum = 0;
  ddc::Cursor cur(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    sum += cur.Load<int64_t>(values + i * 8);
    ctx.ChargeCpu(1);
  }
  return sum;
}

HashTable HashBuild(ddc::ExecutionContext& ctx, const JoinKey& key,
                    const SelVector* cand, const std::string& out_name) {
  KeyReader keys(ctx, key);
  const HashTable ht =
      AllocHashTable(ctx, cand ? cand->count : keys.rows(), out_name);
  ForEachCandidate(ctx, cand, keys.rows(), [&](uint64_t row) {
    const int64_t k = keys.Get(row);
    const Slot slot = FindSlot(ctx, ht, k);
    TELEPORT_DCHECK(slot.empty()) << "duplicate build key " << k;
    ctx.Store<int64_t>(slot.addr, k);
    ctx.Store<int64_t>(slot.addr + 8, static_cast<int64_t>(row));
  });
  return ht;
}

JoinResult HashProbe(ddc::ExecutionContext& ctx, const JoinKey& key,
                     const SelVector* cand, const HashTable& ht,
                     const std::string& out_name) {
  KeyReader keys(ctx, key);
  const uint64_t max_out = cand ? cand->count : keys.rows();
  JoinResult out;
  out.probe_rows = AllocRows(ctx, max_out, out_name + ".probe");
  out.build_rows = AllocRows(ctx, max_out, out_name + ".build");
  ddc::Cursor probe_out_cur(ctx);
  ddc::Cursor build_out_cur(ctx);
  ForEachCandidate(ctx, cand, keys.rows(), [&](uint64_t row) {
    const Slot slot = FindSlot(ctx, ht, keys.Get(row));
    if (slot.empty()) return;
    const int64_t build_row = ctx.Load<int64_t>(slot.addr + 8);
    probe_out_cur.Store<int64_t>(out.probe_rows + out.count * 8,
                                 static_cast<int64_t>(row));
    build_out_cur.Store<int64_t>(out.build_rows + out.count * 8, build_row);
    ++out.count;
  });
  return out;
}

ddc::VAddr MergeJoinDense(ddc::ExecutionContext& ctx, const Column& fk,
                          const SelVector& sel, uint64_t dim_rows,
                          const std::string& out_name) {
  const ddc::VAddr out = AllocRows(ctx, sel.count, out_name);
  // Both cursors advance monotonically: sel rows ascend, so fk[sel[i]] is
  // non-decreasing (lineitem is physically ordered by l_orderkey), and the
  // dense dimension is its own sorted key.
  int64_t dim_cursor = -1;
  ddc::Cursor sel_cur(ctx);
  ddc::Cursor fk_cur(ctx);
  ddc::Cursor out_cur(ctx);
  for (uint64_t i = 0; i < sel.count; ++i) {
    const int64_t row = sel_cur.Load<int64_t>(sel.addr + i * 8);
    const int64_t key = fk.Get(fk_cur, static_cast<uint64_t>(row));
    TELEPORT_DCHECK(key >= dim_cursor) << "merge join input not sorted";
    TELEPORT_DCHECK(key < static_cast<int64_t>(dim_rows));
    dim_cursor = key;
    ctx.ChargeCpu(3);
    out_cur.Store<int64_t>(out + i * 8, key);  // dense dim: row id == key
  }
  return out;
}

ddc::VAddr GroupSumDense(ddc::ExecutionContext& ctx, ddc::VAddr keys,
                         ddc::VAddr values, uint64_t count, uint64_t domain,
                         const std::string& out_name) {
  const ddc::VAddr out =
      ctx.memory_system().space().Alloc(domain * 8, out_name);
  ddc::Cursor key_cur(ctx);
  ddc::Cursor val_cur(ctx);
  ddc::Cursor acc_cur(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t k = key_cur.Load<int64_t>(keys + i * 8);
    const int64_t v = val_cur.Load<int64_t>(values + i * 8);
    TELEPORT_DCHECK(k >= 0 && k < static_cast<int64_t>(domain));
    const ddc::VAddr slot = out + static_cast<uint64_t>(k) * 8;
    acc_cur.Store<int64_t>(slot, acc_cur.Load<int64_t>(slot) + v);
    ctx.ChargeCpu(6);
  }
  return out;
}

GroupHashResult GroupSumHash(ddc::ExecutionContext& ctx, ddc::VAddr keys,
                             ddc::VAddr values, uint64_t count,
                             const std::string& out_name) {
  GroupHashResult g{AllocHashTable(ctx, count, out_name)};
  ddc::Cursor key_cur(ctx);
  ddc::Cursor val_cur(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t k = key_cur.Load<int64_t>(keys + i * 8);
    const int64_t v = val_cur.Load<int64_t>(values + i * 8);
    const Slot slot = FindSlot(ctx, g, k);
    if (slot.empty()) {
      ctx.Store<int64_t>(slot.addr, k);
      ctx.Store<int64_t>(slot.addr + 8, v);
      ++g.groups;
    } else {
      const ddc::VAddr sum = slot.addr + 8;
      ctx.Store<int64_t>(sum, ctx.Load<int64_t>(sum) + v);
    }
  }
  return g;
}

int64_t ChecksumDenseGroups(ddc::ExecutionContext& ctx, ddc::VAddr groups,
                            uint64_t domain) {
  int64_t checksum = 0;
  ddc::Cursor cur(ctx);
  for (uint64_t k = 0; k < domain; ++k) {
    const int64_t v = cur.Load<int64_t>(groups + k * 8);
    checksum += static_cast<int64_t>(k + 1) * (v + 1'000'003);
    ctx.ChargeCpu(2);
  }
  return checksum;
}

int64_t ChecksumHashGroups(ddc::ExecutionContext& ctx,
                           const GroupHashResult& g) {
  int64_t checksum = 0;
  ddc::Cursor cur(ctx);
  for (uint64_t s = 0; s < g.slots; ++s) {
    const int64_t k = cur.Load<int64_t>(g.addr + s * kSlotBytes);
    if (k == HashTable::kEmptyKey) continue;
    const int64_t v = cur.Load<int64_t>(g.addr + s * kSlotBytes + 8);
    checksum += (k + 7) * (v + 1'000'003);  // order independent
    ctx.ChargeCpu(2);
  }
  return checksum;
}

}  // namespace teleport::db
