#ifndef TELEPORT_SIM_METRICS_H_
#define TELEPORT_SIM_METRICS_H_

#include <cstdint>
#include <string>

namespace teleport::sim {

/// X(field, group, label) — every counter of the simulator, in declaration
/// and print order. The field declarations, Add, Diff, and ToString are all
/// generated from this one list, so a counter cannot be added to one and
/// silently missed by the others (the drift guard below catches a field
/// declared outside the list).
///
/// `group` names the ToString section (`memory_pool` prints as
/// "memory pool"; the sentinel `none` keeps a field out of the dump, whose
/// exact format is byte-locked by format_golden_test). `label` is the
/// field's short name within its section.
#define TELEPORT_SIM_METRICS_FIELDS(X)                                        \
  /* Compute-pool cache. */                                                   \
  X(cache_hits, cache, hits)                                                  \
  X(cache_misses, cache, misses)         /* page faults to the memory pool */ \
  X(cache_evictions, cache, evictions)                                        \
  X(dirty_writebacks, cache, writebacks) /* evicted dirty pages sent back */  \
  X(prefetched_pages, none, prefetched)  /* pages pulled by the prefetcher */ \
  /* Fabric traffic. */                                                       \
  X(net_messages, net, messages)                                              \
  X(net_bytes, net, bytes)                                                    \
  X(bytes_from_memory_pool, net, from_mem) /* page data pulled to compute */  \
  X(bytes_to_memory_pool, net, to_mem)     /* page data pushed back */        \
  /* Fabric queueing (PR9 contended backends; zero under net::kIdeal). */     \
  X(netq_queued_sends, netq, queued_sends) /* sends that waited in a queue */ \
  X(netq_queue_wait_ns, netq, queue_wait_ns)                                  \
  X(netq_doorbells, netq, doorbells)       /* verbs actually posted */        \
  X(netq_doorbells_coalesced, netq, doorbells_coalesced)                      \
  X(netq_sg_segments, netq, sg_segments)   /* scatter-gather list entries */  \
  X(netq_smartnic_offloads, netq, smartnic_offloads)                          \
  /* Memory pool. */                                                          \
  X(memory_pool_hits, memory_pool, hits)                                      \
  X(memory_pool_faults, memory_pool, faults) /* recursive storage faults */   \
  /* Storage pool. */                                                         \
  X(storage_reads, storage, reads)                                            \
  X(storage_writes, storage, writes)                                          \
  /* Coherence protocol (§4). */                                              \
  X(coherence_messages, coherence, messages)                                  \
  X(coherence_invalidations, coherence, invalidations)                        \
  X(coherence_downgrades, coherence, downgrades)                              \
  X(coherence_page_returns, coherence, page_returns) /* dirty flush-backs */  \
  /* TELEPORT runtime. */                                                     \
  X(pushdown_calls, teleport, pushdowns)                                      \
  X(syncmem_pages, teleport, syncmem_pages)                                   \
  /* Resilience (§3.2 failure handling; all zero in fault-free runs). */      \
  X(fault_events, resilience, fault_events) /* injected drops observed */     \
  X(retries, resilience, retries)           /* RPC attempts after a drop */   \
  X(fallbacks, resilience, fallbacks)       /* pushdowns re-run locally */    \
  X(lost_pool_writes, resilience, lost_pool_writes) /* lost to a restart */   \
  /* Recovery (PR6 journal/fencing/dedup; zero with the journal off). */      \
  X(recovered_pool_writes, recovery, recovered_pool_writes)                   \
  X(journal_appends, recovery, journal_appends)   /* redo records written */  \
  X(journal_flushes, recovery, journal_flushes)   /* group-commit batches */  \
  X(fenced_rpcs, recovery, fenced_rpcs) /* stale-epoch pushdowns rejected */  \
  X(dedup_hits, recovery, dedup_hits)   /* duplicate deliveries suppressed */ \
  /* OLTP transactions (PR8 src/oltp; zero unless the oltp engine runs). */   \
  X(txn_commits, txn, commits)                                                \
  X(txn_aborts, txn, aborts)   /* validation failures (before any retry) */   \
  X(txn_retries, txn, retries) /* re-executions after an abort */             \
  X(txn_reads_validated, txn, reads_validated) /* read-set entries checked */ \
  X(txn_undo_writes, txn, undo_writes) /* provisional installs rolled back */ \
  X(btree_splits, txn, node_splits)                                           \
  X(btree_merges, txn, node_merges)                                           \
  /* CPU accounting. */                                                       \
  X(cpu_ops, cpu, ops)

/// Event counters accumulated by the DDC simulator. A context owns one
/// Metrics; scopes (e.g. one relational operator) can snapshot-and-diff to
/// attribute traffic to a region of execution (Fig 10's "remote memory
/// accesses" column).
struct Metrics {
#define TELEPORT_SIM_METRICS_DECL(field, group, label) uint64_t field = 0;
  TELEPORT_SIM_METRICS_FIELDS(TELEPORT_SIM_METRICS_DECL)
#undef TELEPORT_SIM_METRICS_DECL

  /// Element-wise accumulation.
  void Add(const Metrics& o) {
#define TELEPORT_SIM_METRICS_ADD(field, group, label) field += o.field;
    TELEPORT_SIM_METRICS_FIELDS(TELEPORT_SIM_METRICS_ADD)
#undef TELEPORT_SIM_METRICS_ADD
  }

  /// Element-wise difference (this - o); used for scoped attribution.
  Metrics Diff(const Metrics& o) const {
    Metrics d = *this;
#define TELEPORT_SIM_METRICS_DIFF(field, group, label) d.field -= o.field;
    TELEPORT_SIM_METRICS_FIELDS(TELEPORT_SIM_METRICS_DIFF)
#undef TELEPORT_SIM_METRICS_DIFF
    return d;
  }

  /// Total bytes moved between the compute and memory pools ("remote memory
  /// accesses" in the paper's figures).
  uint64_t RemoteMemoryBytes() const {
    return bytes_from_memory_pool + bytes_to_memory_pool;
  }

  /// Multi-line human-readable dump.
  std::string ToString() const;
};

#define TELEPORT_SIM_METRICS_COUNT(field, group, label) +1
/// Number of counters in the field list.
inline constexpr int kNumMetricsFields =
    0 TELEPORT_SIM_METRICS_FIELDS(TELEPORT_SIM_METRICS_COUNT);
#undef TELEPORT_SIM_METRICS_COUNT

// Drift guard: every member of Metrics must come from the X-macro list. A
// uint64_t added directly to the struct changes its size without changing
// kNumMetricsFields and fails here.
static_assert(sizeof(Metrics) ==
                  static_cast<size_t>(kNumMetricsFields) * sizeof(uint64_t),
              "Metrics has a field outside TELEPORT_SIM_METRICS_FIELDS; add "
              "it to the X-macro list so Add/Diff/ToString stay in sync");

}  // namespace teleport::sim

#endif  // TELEPORT_SIM_METRICS_H_
