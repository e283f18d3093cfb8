#ifndef TELEPORT_RACK_TRAFFIC_H_
#define TELEPORT_RACK_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "ddc/memory_system.h"
#include "sim/tenant_scopes.h"
#include "teleport/pushdown.h"

namespace teleport::rack {

/// Which engine's access pattern a tenant's sessions reproduce. The rack
/// generator drives the memory system with the same kernels the engines
/// are built from — a db session scans and aggregates, a graph session
/// chases dependent pointers, an mr session shuffles read-modify-writes,
/// an oltp session runs index-probe descents ending in one hot 8-byte
/// version-bump RMW — so hundreds of sessions stay cheap enough to sweep
/// while still exercising every multi-tenant path (per-node caches,
/// per-shard pools, per-link fabric, fencing, admission control).
enum class WorkloadKind { kDb, kGraph, kMr, kOltp };

std::string_view WorkloadKindToString(WorkloadKind k);

/// One session's kernel, shaped after its tenant's engine: db = strided
/// scan + aggregate, graph = dependent pointer chase, mr = hashed
/// read-modify-write scatter, oltp = radix index probe ending in a
/// version-bump RMW. All offsets are 8-byte aligned inside
/// [slice, slice + slice_bytes); the returned digest is a pure function of
/// (kernel_seed, kind, slice contents). Exported so benches and tests can
/// run exactly this workload as a CoopTask body on one (node, shard) of a
/// rack and compare digests across schedules.
uint64_t RunKernel(ddc::ExecutionContext& c, WorkloadKind kind,
                   ddc::VAddr slice, uint64_t slice_bytes, int ops,
                   uint64_t kernel_seed);

/// Open-loop arrival schedule: session i of the run arrives at
/// `i * mean_interarrival_ns` plus seeded jitter, independent of service
/// times (arrivals never wait for completions — the defining property of an
/// open-loop generator). Everything is derived from `seed`, so two runs
/// with equal configs produce bit-identical schedules, digests, and
/// virtual-time accounting.
struct TrafficConfig {
  /// Accounting tenants; tenant t runs the WorkloadKind
  /// t % workload_families and is bound to compute node t % compute_nodes
  /// (its sessions share that node's cache and never migrate pages across
  /// nodes).
  int tenants = 3;
  /// How many WorkloadKind families the tenant→kind mapping cycles over.
  /// The default 3 reproduces the pre-OLTP mix (db/graph/mr) bit-for-bit;
  /// 4 adds kOltp as the fourth family.
  int workload_families = 3;
  /// Total session arrivals across all tenants (session i belongs to
  /// tenant i % tenants).
  int sessions = 100;
  Nanos mean_interarrival_ns = 50 * kMicrosecond;
  /// Jitter half-width as a fraction of the mean (0 = strictly periodic).
  double jitter_frac = 0.5;
  /// Pages of each tenant's private address slice.
  uint64_t slice_pages = 64;
  /// Memory operations issued by one session's kernel.
  int ops_per_session = 256;
  /// Admission-control knob: maximum sessions in flight at once; an arrival
  /// over the limit is held until the earliest completion (counted in
  /// TrafficResult::deferred). 0 = unlimited.
  int max_concurrent = 0;
  /// Contention knob (the rack-scale analogue of Fig 21's rate): when set,
  /// every tenant runs against ONE shared slice instead of its private one,
  /// so sessions of different tenants fight over the same pages, caches,
  /// and home shard.
  bool shared_slice = false;
  uint64_t seed = 1;
};

/// Aggregate outcome of one open-loop run.
struct TrafficResult {
  uint64_t completed = 0;
  /// Sessions that finished with a non-OK status (chaos runs only; the
  /// status code folds into the checksum deterministically).
  uint64_t failed = 0;
  /// Sessions whose start was delayed by the admission-control limit.
  uint64_t deferred = 0;
  /// Virtual time from the first arrival to the last completion.
  Nanos makespan_ns = 0;
  /// Order-independent digest over every session's (id, result) pair: the
  /// same set of session outcomes yields the same checksum under any
  /// completion schedule.
  uint64_t checksum = 0;
  /// Per-tenant accounting (metrics + latency), merged views, and the Jain
  /// fairness indices derived from them.
  sim::TenantScopes scopes{1};
  double completion_fairness = 1.0;
  double remote_bytes_fairness = 1.0;
  /// Merged session-latency percentiles (all tenants), precomputed from
  /// `scopes` so load-latency sweeps read the knee without re-merging
  /// histograms. Under a contended fabric backend p99 diverges from p50 as
  /// offered load approaches a resource's capacity; under net::kIdeal the
  /// two stay within a constant factor at any load.
  double p50_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
};

/// Runs `cfg.sessions` open-loop sessions against `ms`/`runtime`. Allocates
/// one private `slice_pages` slice per tenant from the system's address
/// space (the caller sizes the space), binds each tenant to a compute node,
/// homes each session's pushdown at the shard that owns the first page it
/// touches, and attributes every session into `TrafficResult::scopes`.
///
/// On a 1x1 rack every session routes through node 0 / shard 0 — the exact
/// legacy paths — so the generator is also the degenerate-rack regression
/// driver.
TrafficResult RunOpenLoop(ddc::MemorySystem& ms,
                          tp::PushdownRuntime& runtime,
                          const TrafficConfig& cfg);

}  // namespace teleport::rack

#endif  // TELEPORT_RACK_TRAFFIC_H_
