#ifndef TELEPORT_SIM_COST_MODEL_H_
#define TELEPORT_SIM_COST_MODEL_H_

#include <cstdint>

#include "common/units.h"

namespace teleport::sim {

/// All timing constants of the simulated testbed in one place.
///
/// Defaults reproduce the paper's evaluation platform (§7): Intel Xeon
/// E5-2630L compute nodes, a 56 Gb/s / 1.2 us InfiniBand fabric (Mellanox
/// CX-3 + EDR switch), a memory pool with a single controller, and a 1 TB
/// NVMe SSD storage pool (3 GB/s sequential, 600 K IOPS random at depth).
///
/// Every cost charged anywhere in the simulator comes from this struct, so a
/// bench can re-run an experiment under a different hardware assumption by
/// swapping parameters.
struct CostParams {
  // --- Page layout -------------------------------------------------------
  uint64_t page_size = 4096;

  // --- Network fabric (InfiniBand EDR, CX-3) -----------------------------
  /// One-way message latency.
  Nanos net_latency_ns = 1'200;
  /// Fabric bandwidth in bytes per nanosecond (56 Gb/s = 7 GB/s).
  double net_bytes_per_ns = 7.0;
  /// Software overhead of handling one page-fault RPC on the remote side
  /// (kernel workqueue wakeup, page-table walk, NIC doorbell).
  Nanos fault_handler_ns = 900;
  /// Extra per-message protocol overhead of the coherence engine; the paper
  /// reports 1.6 us average coherence message latency vs the raw 1.2 us.
  Nanos coherence_overhead_ns = 400;

  // --- Contended fabric (kQueuedRdma / kSmartNic backends only) -----------
  /// Aggregate capacity of one compute node's NIC, shared by every link of
  /// that node in both directions (12.5 GB/s = 100 Gb/s host NIC).
  double nic_bytes_per_ns = 12.5;
  /// Aggregate capacity of one memory shard's controller, shared by every
  /// compute node talking to that shard (slightly above the link rate, so a
  /// single flow is link-bound but two concurrent tenants contend here).
  double ctrl_bytes_per_ns = 10.0;
  /// Verb submission cost (WQE build + doorbell write) charged when a send
  /// cannot ride a previously rung doorbell.
  Nanos verb_overhead_ns = 250;
  /// Submissions within this window of the queue pair's previous doorbell
  /// coalesce into one verb (doorbell batching).
  Nanos doorbell_batch_window_ns = 400;
  /// NIC-side handler time of a SmartNIC-offloaded message (coherence
  /// directory lookup / small pushdown probe), replacing fault_handler_ns.
  Nanos smartnic_handler_ns = 150;
  /// Largest request the SmartNIC executes on-NIC; bigger ones take the
  /// host path through the shard controller queue.
  uint64_t smartnic_max_bytes = 256;
  /// Heartbeat liveness budget: a probe whose round trip exceeds this (plus
  /// the fabric's committed queue backlog, which the prober can observe
  /// locally) declares the shard dead. See PushdownRuntime::CheckHeartbeat.
  Nanos heartbeat_deadline_ns = 5 * kMillisecond;

  // --- DRAM (both compute-local cache and memory pool) -------------------
  /// Cost of an access that stays within the previously touched page
  /// (stream-like; hardware prefetch effective).
  Nanos dram_seq_access_ns = 2;
  /// Additional per-byte cost of sequential DRAM traffic (~40 GB/s).
  double dram_seq_ns_per_byte = 0.025;
  /// Cost of an access that lands on a different page than the previous one
  /// (row miss / TLB pressure).
  Nanos dram_random_access_ns = 100;
  /// Minor page fault (first touch of an anonymous page, zero-fill).
  Nanos minor_fault_ns = 1'500;
  /// Local read-only -> writable permission upgrade (PTE flip + TLB flush).
  Nanos perm_upgrade_ns = 300;

  // --- CPU ----------------------------------------------------------------
  /// Cost of one "simple operation" (compare, add, hash step) on a
  /// compute-pool core at full clock (2.1 GHz).
  double cpu_ns_per_op = 0.48;
  /// Context-switch penalty in the memory pool when more user contexts are
  /// runnable than physical cores (§7.3, Fig 17).
  Nanos context_switch_ns = 3'000;

  // --- NVMe SSD storage pool ----------------------------------------------
  /// Latency of a random 4 KiB page read on the swap path (queue-depth-1
  /// NVMe latency plus kernel swap-in overhead and readahead pollution).
  Nanos ssd_random_page_ns = 100'000;
  /// Page read that sequentially follows the previous faulting page.
  /// Swap-in readahead helps but the per-page kernel swap path keeps this
  /// far above the drive's raw 3 GB/s sequential rating.
  Nanos ssd_seq_page_ns = 25'000;
  /// Page writeback cost (write buffering hides some latency).
  Nanos ssd_write_page_ns = 30'000;

  // --- TELEPORT runtime ----------------------------------------------------
  /// Per-PTE cost of cloning the caller page table and applying the
  /// Fig-8 invalidation pass when instantiating a temporary user context.
  Nanos pte_clone_ns = 950;
  /// Per-entry cost of scanning the compute cache to build the resident
  /// page list at the start of pushdown.
  Nanos resident_scan_ns = 60;
  /// Fixed cost of instantiating / recycling the temporary user context
  /// (kernel thread wakeup, vfork-like attach).
  Nanos context_fixed_ns = 25'000;
  /// Per-page cost of the eager-synchronization strawman (one RDMA write
  /// with doorbell + completion per page, Fig 20).
  Nanos eager_sync_per_page_ns = 5'000;

  /// Time for a message of `bytes` payload to traverse the fabric.
  Nanos NetTransfer(uint64_t bytes) const {
    return net_latency_ns +
           static_cast<Nanos>(static_cast<double>(bytes) / net_bytes_per_ns);
  }

  /// Time to move one page across the fabric (fault reply, writeback).
  Nanos NetPageTransfer() const { return NetTransfer(page_size); }

  /// CPU time of `ops` simple operations on a core with the given clock
  /// ratio (1.0 = compute-pool clock).
  Nanos Cpu(uint64_t ops, double clock_ratio = 1.0) const {
    return static_cast<Nanos>(static_cast<double>(ops) * cpu_ns_per_op /
                              clock_ratio);
  }

  /// The paper's default testbed configuration.
  static CostParams Default() { return CostParams{}; }
};

}  // namespace teleport::sim

#endif  // TELEPORT_SIM_COST_MODEL_H_
