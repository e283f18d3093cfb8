#ifndef TELEPORT_DDC_TYPES_H_
#define TELEPORT_DDC_TYPES_H_

#include <cstdint>
#include <string_view>

#include "common/units.h"

namespace teleport::ddc {

/// Virtual address inside a simulated process address space.
using VAddr = uint64_t;

/// Page number (VAddr / page_size).
using PageId = uint64_t;

/// Index of a node within its class of the rack: compute-pool client
/// (blade) or memory-pool shard. The degenerate 1x1 rack — the paper's
/// topology — is node 0 talking to shard 0 everywhere.
using NodeId = int32_t;

/// Tenant owning a unit of work. Tenants are an accounting dimension
/// (per-tenant metrics scopes, fairness counters), orthogonal to node
/// placement: several tenants may share a compute node.
using TenantId = int32_t;

/// Sentinel for "no page": used by the per-context stream trackers, the
/// last-fault readahead state, and the translation-cache pins.
inline constexpr PageId kNoPage = ~PageId{0};

/// Which resource pool a context executes in.
enum class Pool : uint8_t {
  kCompute,  ///< compute pool; local DRAM is only a cache
  kMemory,   ///< memory-pool controller (pushdown target)
};

/// Deployment platform being simulated.
enum class Platform : uint8_t {
  /// Monolithic Linux server with enough DRAM for the working set.
  kLocal,
  /// Monolithic Linux server with constrained DRAM spilling to NVMe SSD.
  kLinuxSsd,
  /// Disaggregated OS (LegoOS-like): compute-local cache backed by the
  /// remote memory pool, which itself spills to the storage pool.
  /// TELEPORT runs on this platform with the pushdown runtime enabled.
  kBaseDdc,
};

std::string_view PlatformToString(Platform p);

/// Page permission of one side (compute cache or temporary context) in the
/// two-sided coherence protocol of §4.1: absent / read-only / writable.
enum class Perm : uint8_t { kNone = 0, kRead = 1, kWrite = 2 };

/// Replacement policy of the compute-pool page cache. §2.2 notes that
/// LRU-style caching is a poor fit for scan-heavy operators; the policy is
/// pluggable so the claim can be tested (none of them rescues the DDC).
enum class CachePolicy : uint8_t {
  kLru,    ///< strict recency order (default, LegoOS-like)
  kFifo,   ///< insertion order, hits do not promote
  kClock,  ///< second-chance: a reference bit saves a page once
};

std::string_view CachePolicyToString(CachePolicy p);

/// Static configuration of one simulated deployment.
struct DdcConfig {
  Platform platform = Platform::kBaseDdc;

  /// Compute-local DRAM: the page cache in DDC platforms, or the entire
  /// local memory in kLinuxSsd. Ignored by kLocal.
  uint64_t compute_cache_bytes = 64 * kMiB;

  /// Memory-pool DRAM capacity; pages beyond it spill to the storage pool.
  uint64_t memory_pool_bytes = 8 * kGiB;

  /// Clock-speed ratio of memory-pool cores vs compute-pool cores.
  double memory_pool_clock_ratio = 1.0;

  /// Replacement policy of the compute-pool page cache.
  CachePolicy cache_policy = CachePolicy::kLru;

  /// Sequential prefetch depth of the compute-pool cache: on a fault that
  /// continues the previous fault's page stream, up to this many further
  /// pages are fetched in the same round trip. 0 disables prefetching.
  /// (§2.2: OS-level caching and prefetching alone are insufficient —
  /// the ablation bench quantifies that claim.)
  int prefetch_pages = 0;

  /// Compute-pool clients of the rack, each with an independent page cache
  /// of `compute_cache_bytes`. Values > 1 require kBaseDdc (monolithic
  /// platforms have no rack).
  int compute_nodes = 1;

  /// Memory-pool shards the address space is block-partitioned across
  /// (DRackSim-style rack). Each shard owns a contiguous page range with
  /// its own page-table slice, LRU, journal, dedup table, and lease epoch;
  /// `memory_pool_bytes` is divided evenly. Values > 1 require kBaseDdc.
  int memory_shards = 1;
};

}  // namespace teleport::ddc

#endif  // TELEPORT_DDC_TYPES_H_
