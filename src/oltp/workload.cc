#include "oltp/workload.h"

namespace teleport::oltp {

void PreloadTable(ddc::ExecutionContext& ctx, BTree& tree, uint64_t keyspace) {
  for (uint64_t key = 0; key < keyspace; ++key) {
    tree.Insert(ctx, key, Mix64(key),
                RecordMeta::Pack(/*version=*/0, /*present=*/true));
  }
}

namespace {

enum class OpKind { kRead, kUpdate, kInsert, kScan };

OpKind PickOp(const YcsbConfig& cfg, double p) {
  if (p < cfg.read_fraction) return OpKind::kRead;
  if (p < cfg.read_fraction + cfg.update_fraction) return OpKind::kUpdate;
  if (p < cfg.read_fraction + cfg.update_fraction + cfg.insert_fraction) {
    return OpKind::kInsert;
  }
  return OpKind::kScan;
}

}  // namespace

YcsbResult RunYcsbSession(ddc::ExecutionContext& ctx, TxnManager& mgr,
                          const YcsbConfig& cfg, int session) {
  YcsbResult out;
  const ZipfGenerator zipf(cfg.keyspace, cfg.zipfian ? cfg.zipf_theta : 0.5);
  for (int t = 0; t < cfg.txns_per_session; ++t) {
    const sim::Metrics before = ctx.metrics();
    const Nanos start = ctx.now();
    int attempts = 0;
    for (;;) {
      ++attempts;
      // Reseeded per attempt from (seed, session, txn) only: a retry
      // replays the identical op stream.
      Rng rng(Mix64(cfg.seed ^ Mix64((static_cast<uint64_t>(session) << 32) |
                                     static_cast<uint64_t>(t))));
      Txn txn(&mgr, session);
      uint64_t attempt_scan_records = 0;
      uint64_t attempt_scan_digest = 0;
      for (int op = 0; op < cfg.ops_per_txn; ++op) {
        const OpKind kind = PickOp(cfg, rng.NextDouble());
        const uint64_t rank = cfg.zipfian
                                  ? zipf.Sample(rng.NextDouble())
                                  : rng.Uniform(cfg.keyspace);
        // Popular ranks hash to scattered keys (standard YCSB trick) so a
        // zipfian hotspot is not also a B+-tree locality hotspot.
        const uint64_t key = Mix64(rank) % cfg.keyspace;
        switch (kind) {
          case OpKind::kRead:
            txn.Read(ctx, key);
            break;
          case OpKind::kUpdate:
            txn.Update(ctx, key, (rng.Next() & 0xffff) | 1);
            break;
          case OpKind::kInsert: {
            // Keys unique per (session, txn, op): blind inserts commute.
            const uint64_t fresh =
                cfg.keyspace +
                (static_cast<uint64_t>(session) *
                     static_cast<uint64_t>(cfg.txns_per_session) +
                 static_cast<uint64_t>(t)) *
                    static_cast<uint64_t>(cfg.ops_per_txn) +
                static_cast<uint64_t>(op);
            txn.Put(fresh, Mix64(fresh ^ cfg.seed));
            break;
          }
          case OpKind::kScan: {
            const Txn::ScanResult sr = txn.Scan(ctx, key, cfg.scan_length);
            attempt_scan_records += sr.records;
            attempt_scan_digest ^= sr.digest;
            break;
          }
        }
      }
      if (txn.Commit(ctx)) {
        ++out.committed;
        out.commit_digest ^=
            Mix64((static_cast<uint64_t>(session) << 32) |
                  static_cast<uint64_t>(t));
        out.scan_records += attempt_scan_records;
        out.scan_digest ^= attempt_scan_digest;
        break;
      }
      ++out.aborted;
      if (cfg.max_retries > 0 && attempts > cfg.max_retries) {
        ++out.gave_up;
        break;
      }
      ++ctx.metrics().txn_retries;
    }
    if (cfg.scopes != nullptr) {
      cfg.scopes->Record(cfg.base_tenant, ctx.metrics().Diff(before),
                         ctx.now() - start);
    }
  }
  return out;
}

}  // namespace teleport::oltp
