#include "db/operators.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace teleport::db {

namespace {

constexpr uint64_t kSlotBytes = 16;  // {int64 key, int64 row}

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

uint64_t HashKey(int64_t key) { return Mix64(static_cast<uint64_t>(key)); }

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

HashTable AllocHashTable(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                         uint64_t n, const std::string& out_name) {
  HashTable ht;
  ht.slots = NextPow2(std::max<uint64_t>(16, 2 * n));
  ht.addr = ms.space().Alloc(ht.slots * kSlotBytes, out_name);
  // Initialize empty sentinels (MonetDB also materializes its hash part).
  ddc::Cursor init_cur(ctx);
  for (uint64_t s = 0; s < ht.slots; ++s) {
    init_cur.Store<int64_t>(ht.addr + s * kSlotBytes, HashTable::kEmptyKey);
  }
  ctx.ChargeCpu(ht.slots);
  return ht;
}

void HashInsert(ddc::ExecutionContext& ctx, const HashTable& ht, int64_t key,
                int64_t row) {
  const uint64_t mask = ht.slots - 1;
  uint64_t s = HashKey(key) & mask;
  while (true) {
    const int64_t existing = ctx.Load<int64_t>(ht.addr + s * kSlotBytes);
    ctx.ChargeCpu(3);
    if (existing == HashTable::kEmptyKey) {
      ctx.Store<int64_t>(ht.addr + s * kSlotBytes, key);
      ctx.Store<int64_t>(ht.addr + s * kSlotBytes + 8, row);
      return;
    }
    TELEPORT_DCHECK(existing != key) << "duplicate build key " << key;
    s = (s + 1) & mask;
  }
}

/// Returns the build row for `key`, or -1.
int64_t HashLookup(ddc::ExecutionContext& ctx, const HashTable& ht,
                   int64_t key) {
  const uint64_t mask = ht.slots - 1;
  uint64_t s = HashKey(key) & mask;
  while (true) {
    const int64_t existing = ctx.Load<int64_t>(ht.addr + s * kSlotBytes);
    ctx.ChargeCpu(3);
    if (existing == HashTable::kEmptyKey) return -1;
    if (existing == key) {
      return ctx.Load<int64_t>(ht.addr + s * kSlotBytes + 8);
    }
    s = (s + 1) & mask;
  }
}

}  // namespace

SelVector SelectCompare(ddc::ExecutionContext& ctx, const Column& col,
                        CmpOp op, int64_t lo, int64_t hi,
                        const SelVector* cand, const std::string& out_name) {
  ddc::MemorySystem& ms = ctx.memory_system();
  const uint64_t max_out = cand ? cand->count : col.rows();
  SelVector out;
  out.addr = ms.space().Alloc(std::max<uint64_t>(8, max_out * 8), out_name);
  ddc::Cursor col_cur(ctx);
  ddc::Cursor out_cur(ctx);
  ForEachCandidate(ctx, cand, col.rows(), [&](uint64_t row) {
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
    if (match) {
      out_cur.Store<int64_t>(out.addr + out.count * 8,
                             static_cast<int64_t>(row));
      ++out.count;
    }
  });
  return out;
}

SelVector SelectStrContains(ddc::ExecutionContext& ctx,
                            const StringColumn& col, std::string_view needle,
                            const SelVector* cand,
                            const std::string& out_name) {
  ddc::MemorySystem& ms = ctx.memory_system();
  const uint64_t max_out = cand ? cand->count : col.rows();
  SelVector out;
  out.addr = ms.space().Alloc(std::max<uint64_t>(8, max_out * 8), out_name);
  ddc::Cursor col_cur(ctx);
  ddc::Cursor out_cur(ctx);
  ForEachCandidate(ctx, cand, col.rows(), [&](uint64_t row) {
    const std::string_view s = col.Get(col_cur, row);
    ctx.ChargeCpu(col.width());  // byte-wise substring scan
    if (s.find(needle) != std::string_view::npos) {
      out_cur.Store<int64_t>(out.addr + out.count * 8,
                             static_cast<int64_t>(row));
      ++out.count;
    }
  });
  return out;
}

ddc::VAddr ProjectGather(ddc::ExecutionContext& ctx, const Column& col,
                         const SelVector& sel, const std::string& out_name) {
  ddc::MemorySystem& ms = ctx.memory_system();
  const ddc::VAddr out =
      ms.space().Alloc(std::max<uint64_t>(8, sel.count * 8), out_name);
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

int64_t AggrSum(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                ddc::VAddr values, uint64_t count) {
  (void)ms;
  int64_t sum = 0;
  ddc::Cursor cur(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    sum += cur.Load<int64_t>(values + i * 8);
    ctx.ChargeCpu(1);
  }
  return sum;
}

int64_t AggrSumColumn(ddc::ExecutionContext& ctx, const Column& col,
                      const SelVector* cand) {
  int64_t sum = 0;
  ddc::Cursor col_cur(ctx);
  ForEachCandidate(ctx, cand, col.rows(), [&](uint64_t row) {
    sum += col.Get(col_cur, row);
    ctx.ChargeCpu(1);
  });
  return sum;
}

ddc::VAddr ExprMulScaled(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                         ddc::VAddr a, ddc::VAddr b, uint64_t count,
                         int64_t div, const std::string& out_name) {
  const ddc::VAddr out =
      ms.space().Alloc(std::max<uint64_t>(8, count * 8), out_name);
  ddc::Cursor a_cur(ctx);
  ddc::Cursor b_cur(ctx);
  ddc::Cursor out_cur(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t va = a_cur.Load<int64_t>(a + i * 8);
    const int64_t vb = b_cur.Load<int64_t>(b + i * 8);
    out_cur.Store<int64_t>(out + i * 8, va * vb / div);
    ctx.ChargeCpu(45);  // interpreted BAT passes incl. integer division
  }
  return out;
}

ddc::VAddr ExprRevenue(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                       ddc::VAddr price, ddc::VAddr discount, uint64_t count,
                       const std::string& out_name) {
  const ddc::VAddr out =
      ms.space().Alloc(std::max<uint64_t>(8, count * 8), out_name);
  ddc::Cursor p_cur(ctx);
  ddc::Cursor d_cur(ctx);
  ddc::Cursor out_cur(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t p = p_cur.Load<int64_t>(price + i * 8);
    const int64_t d = d_cur.Load<int64_t>(discount + i * 8);
    out_cur.Store<int64_t>(out + i * 8, p * (100 - d) / 100);
    ctx.ChargeCpu(45);  // interpreted BAT passes incl. integer division
  }
  return out;
}

ddc::VAddr ExprAmount(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                      ddc::VAddr price, ddc::VAddr discount, ddc::VAddr cost,
                      ddc::VAddr quantity, uint64_t count,
                      const std::string& out_name) {
  const ddc::VAddr out =
      ms.space().Alloc(std::max<uint64_t>(8, count * 8), out_name);
  ddc::Cursor p_cur(ctx);
  ddc::Cursor d_cur(ctx);
  ddc::Cursor c_cur(ctx);
  ddc::Cursor q_cur(ctx);
  ddc::Cursor out_cur(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t p = p_cur.Load<int64_t>(price + i * 8);
    const int64_t d = d_cur.Load<int64_t>(discount + i * 8);
    const int64_t c = c_cur.Load<int64_t>(cost + i * 8);
    const int64_t q = q_cur.Load<int64_t>(quantity + i * 8);
    out_cur.Store<int64_t>(out + i * 8, p * (100 - d) / 100 - c * q);
    ctx.ChargeCpu(60);  // several BAT passes: two muls, div, subtract
  }
  return out;
}

HashTable HashBuild(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                    const Column& keys, const SelVector* cand,
                    const std::string& out_name) {
  const uint64_t n = cand ? cand->count : keys.rows();
  HashTable ht = AllocHashTable(ctx, ms, n, out_name);
  // Build keys stream sequentially; the table probes stay on the plain
  // context path (random slots would only churn a pin).
  ddc::Cursor key_cur(ctx);
  ForEachCandidate(ctx, cand, keys.rows(), [&](uint64_t row) {
    HashInsert(ctx, ht, keys.Get(key_cur, row), static_cast<int64_t>(row));
  });
  return ht;
}

HashTable HashBuildComposite(ddc::ExecutionContext& ctx,
                             ddc::MemorySystem& ms, const Column& hi,
                             const Column& lo, int64_t shift,
                             const SelVector* cand,
                             const std::string& out_name) {
  const uint64_t n = cand ? cand->count : hi.rows();
  HashTable ht = AllocHashTable(ctx, ms, n, out_name);
  ddc::Cursor hi_cur(ctx);
  ddc::Cursor lo_cur(ctx);
  ForEachCandidate(ctx, cand, hi.rows(), [&](uint64_t row) {
    const int64_t key = hi.Get(hi_cur, row) * shift + lo.Get(lo_cur, row);
    HashInsert(ctx, ht, key, static_cast<int64_t>(row));
  });
  return ht;
}

JoinResult HashProbe(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                     const Column& probe_keys, const SelVector* cand,
                     const HashTable& ht, const std::string& out_name) {
  const uint64_t max_out = cand ? cand->count : probe_keys.rows();
  JoinResult out;
  out.probe_rows =
      ms.space().Alloc(std::max<uint64_t>(8, max_out * 8), out_name + ".probe");
  out.build_rows =
      ms.space().Alloc(std::max<uint64_t>(8, max_out * 8), out_name + ".build");
  ddc::Cursor key_cur(ctx);
  ddc::Cursor probe_out_cur(ctx);
  ddc::Cursor build_out_cur(ctx);
  ForEachCandidate(ctx, cand, probe_keys.rows(), [&](uint64_t row) {
    const int64_t build_row =
        HashLookup(ctx, ht, probe_keys.Get(key_cur, row));
    if (build_row >= 0) {
      probe_out_cur.Store<int64_t>(out.probe_rows + out.count * 8,
                                   static_cast<int64_t>(row));
      build_out_cur.Store<int64_t>(out.build_rows + out.count * 8, build_row);
      ++out.count;
    }
  });
  return out;
}

JoinResult HashProbeComposite(ddc::ExecutionContext& ctx,
                              ddc::MemorySystem& ms, const Column& hi,
                              const Column& lo, int64_t shift,
                              const SelVector* cand, const HashTable& ht,
                              const std::string& out_name) {
  const uint64_t max_out = cand ? cand->count : hi.rows();
  JoinResult out;
  out.probe_rows =
      ms.space().Alloc(std::max<uint64_t>(8, max_out * 8), out_name + ".probe");
  out.build_rows =
      ms.space().Alloc(std::max<uint64_t>(8, max_out * 8), out_name + ".build");
  ddc::Cursor hi_cur(ctx);
  ddc::Cursor lo_cur(ctx);
  ddc::Cursor probe_out_cur(ctx);
  ddc::Cursor build_out_cur(ctx);
  ForEachCandidate(ctx, cand, hi.rows(), [&](uint64_t row) {
    const int64_t key = hi.Get(hi_cur, row) * shift + lo.Get(lo_cur, row);
    const int64_t build_row = HashLookup(ctx, ht, key);
    if (build_row >= 0) {
      probe_out_cur.Store<int64_t>(out.probe_rows + out.count * 8,
                                   static_cast<int64_t>(row));
      build_out_cur.Store<int64_t>(out.build_rows + out.count * 8, build_row);
      ++out.count;
    }
  });
  return out;
}

ddc::VAddr MergeJoinDense(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                          const Column& fk, const SelVector& sel,
                          uint64_t dim_rows, const std::string& out_name) {
  const ddc::VAddr out =
      ms.space().Alloc(std::max<uint64_t>(8, sel.count * 8), out_name);
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

ddc::VAddr GroupSumDense(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                         ddc::VAddr keys, ddc::VAddr values, uint64_t count,
                         uint64_t domain, const std::string& out_name) {
  const ddc::VAddr out = ms.space().Alloc(domain * 8, out_name);
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

GroupHashResult GroupSumHash(ddc::ExecutionContext& ctx,
                             ddc::MemorySystem& ms, ddc::VAddr keys,
                             ddc::VAddr values, uint64_t count,
                             const std::string& out_name) {
  GroupHashResult g;
  g.slots = NextPow2(std::max<uint64_t>(16, 2 * count));
  g.addr = ms.space().Alloc(g.slots * kSlotBytes, out_name);
  ddc::Cursor init_cur(ctx);
  for (uint64_t s = 0; s < g.slots; ++s) {
    init_cur.Store<int64_t>(g.addr + s * kSlotBytes, HashTable::kEmptyKey);
  }
  ctx.ChargeCpu(g.slots);
  const uint64_t mask = g.slots - 1;
  ddc::Cursor key_cur(ctx);
  ddc::Cursor val_cur(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    const int64_t k = key_cur.Load<int64_t>(keys + i * 8);
    const int64_t v = val_cur.Load<int64_t>(values + i * 8);
    uint64_t s = HashKey(k) & mask;
    while (true) {
      const int64_t existing = ctx.Load<int64_t>(g.addr + s * kSlotBytes);
      ctx.ChargeCpu(3);
      if (existing == HashTable::kEmptyKey) {
        ctx.Store<int64_t>(g.addr + s * kSlotBytes, k);
        ctx.Store<int64_t>(g.addr + s * kSlotBytes + 8, v);
        ++g.groups;
        break;
      }
      if (existing == k) {
        const ddc::VAddr slot = g.addr + s * kSlotBytes + 8;
        ctx.Store<int64_t>(slot, ctx.Load<int64_t>(slot) + v);
        break;
      }
      s = (s + 1) & mask;
    }
  }
  return g;
}

int64_t ChecksumDenseGroups(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                            ddc::VAddr groups, uint64_t domain) {
  (void)ms;
  int64_t checksum = 0;
  ddc::Cursor cur(ctx);
  for (uint64_t k = 0; k < domain; ++k) {
    const int64_t v = cur.Load<int64_t>(groups + k * 8);
    checksum += static_cast<int64_t>(k + 1) * (v + 1'000'003);
    ctx.ChargeCpu(2);
  }
  return checksum;
}

int64_t ChecksumHashGroups(ddc::ExecutionContext& ctx, ddc::MemorySystem& ms,
                           const GroupHashResult& g) {
  (void)ms;
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
