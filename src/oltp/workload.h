#ifndef TELEPORT_OLTP_WORKLOAD_H_
#define TELEPORT_OLTP_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "oltp/txn.h"
#include "sim/tenant_scopes.h"

namespace teleport::oltp {

/// YCSB-style transactional mix over one table.
///
/// Determinism contract (the differential harness leans on every clause):
///  - A transaction's op stream is a pure function of (seed, session, txn
///    index) — never of values read — so an aborted transaction retries
///    with the *identical* ops.
///  - Updates are commutative read-modify-writes (value += delta), inserts
///    use keys unique to their (session, txn, op), and every transaction
///    retries until it commits (max_retries = 0). Under those rules the
///    final table content and the set of committed (session, txn) pairs
///    are schedule-independent; only timing, abort counts, and scan
///    results move with the schedule.
struct YcsbConfig {
  int sessions = 4;           ///< used by callers to derive session ids
  int txns_per_session = 32;
  int ops_per_txn = 4;
  uint64_t keyspace = 256;    ///< preloaded keys [0, keyspace)
  /// Op-mix fractions; remainder after read+update+insert is scan.
  double read_fraction = 0.5;
  double update_fraction = 0.35;
  double insert_fraction = 0.05;
  bool zipfian = false;       ///< zipfian vs uniform key popularity
  double zipf_theta = 0.99;   ///< zipfian skew, in (0, 1); else aborts
  int scan_length = 8;
  uint64_t seed = 1;
  /// Abort retry budget per transaction; 0 = retry until commit (the
  /// schedule-independent mode).
  int max_retries = 0;
  /// Optional per-tenant attribution: each committed transaction records
  /// its context-metrics diff and end-to-end latency under `base_tenant`.
  sim::TenantScopes* scopes = nullptr;
  int base_tenant = 0;
};

/// Populates keys [0, keyspace) with value Mix64(key), version 0, present.
/// Run before any session starts (single-threaded).
void PreloadTable(ddc::ExecutionContext& ctx, BTree& tree, uint64_t keyspace);

/// One session's aggregate outcome.
struct YcsbResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;       ///< validation failures across all attempts
  uint64_t gave_up = 0;       ///< transactions that exhausted max_retries
  /// XOR-fold over Mix64 of every committed (session, txn) pair:
  /// order-independent, so schedule-independent when every txn commits.
  uint64_t commit_digest = 0;
  uint64_t scan_records = 0;  ///< schedule-dependent (no phantom protection)
  uint64_t scan_digest = 0;   ///< schedule-dependent
};

/// Runs one session's transactions to completion on `ctx` (designed as a
/// sim::CoopTask body; equally runnable standalone for the sequential
/// golden). Scan results only count for the committed attempt of each
/// transaction.
YcsbResult RunYcsbSession(ddc::ExecutionContext& ctx, TxnManager& mgr,
                          const YcsbConfig& cfg, int session);

}  // namespace teleport::oltp

#endif  // TELEPORT_OLTP_WORKLOAD_H_
