#include "ddc/memory_system.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "common/logging.h"
#include "net/faults.h"
#include "sim/tracer.h"
#include "teleport/retry.h"

namespace teleport::ddc {

std::string_view CoherenceModeToString(CoherenceMode m) {
  switch (m) {
    case CoherenceMode::kMesi:
      return "MESI";
    case CoherenceMode::kPso:
      return "PSO";
    case CoherenceMode::kWeakOrdering:
      return "WeakOrdering";
    case CoherenceMode::kNone:
      return "None";
  }
  return "Unknown";
}

std::string_view CoherenceEventKindToString(CoherenceEvent::Kind k) {
  switch (k) {
    case CoherenceEvent::Kind::kSessionBegin:
      return "SessionBegin";
    case CoherenceEvent::Kind::kSessionEnd:
      return "SessionEnd";
    case CoherenceEvent::Kind::kComputeAccess:
      return "ComputeAccess";
    case CoherenceEvent::Kind::kMemoryAccess:
      return "MemoryAccess";
    case CoherenceEvent::Kind::kComputeEvict:
      return "ComputeEvict";
    case CoherenceEvent::Kind::kPrefetchFill:
      return "PrefetchFill";
    case CoherenceEvent::Kind::kSyncmemPage:
      return "SyncmemPage";
    case CoherenceEvent::Kind::kFlushPage:
      return "FlushPage";
    case CoherenceEvent::Kind::kRefetchPage:
      return "RefetchPage";
    case CoherenceEvent::Kind::kPoolRestart:
      return "PoolRestart";
    case CoherenceEvent::Kind::kPoolRecover:
      return "PoolRecover";
    case CoherenceEvent::Kind::kJournalCommit:
      return "JournalCommit";
    case CoherenceEvent::Kind::kJournalTruncate:
      return "JournalTruncate";
    case CoherenceEvent::Kind::kPushdownAdmit:
      return "PushdownAdmit";
    case CoherenceEvent::Kind::kTxnRead:
      return "TxnRead";
    case CoherenceEvent::Kind::kTxnWrite:
      return "TxnWrite";
    case CoherenceEvent::Kind::kTxnCommit:
      return "TxnCommit";
    case CoherenceEvent::Kind::kTxnAbort:
      return "TxnAbort";
    case CoherenceEvent::Kind::kTxnUndo:
      return "TxnUndo";
  }
  return "Unknown";
}

// --- MemorySystem ------------------------------------------------------------

namespace {

// Block-partition stride: the address-space capacity is fixed at
// construction, so every page's shard is known before any allocation.
uint64_t PagesPerShard(uint64_t capacity_bytes, uint64_t page_size,
                       int shards) {
  const uint64_t cap_pages =
      std::max<uint64_t>(1, (capacity_bytes + page_size - 1) / page_size);
  const uint64_t m = static_cast<uint64_t>(std::max(1, shards));
  return std::max<uint64_t>(1, (cap_pages + m - 1) / m);
}

// Admission sites that can never meet a full shard: staging checks the
// capacity first, and journal replay restores a subset of the pages the
// shard held at the crash (a page's record is dropped when it leaves).
void CannotEvict(PageId victim) {
  TELEPORT_CHECK(false) << "unexpected pool eviction of page " << victim;
}

// Reads an on/off environment knob: unset or empty is off; otherwise the
// value must be exactly "0" or "1", and anything else aborts.
bool SwitchFromEnv(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return false;
  const std::string_view s(v);
  TELEPORT_CHECK(s == "0" || s == "1")
      << name << "=\"" << s << "\": expected 0 or 1";
  return s == "1";
}

}  // namespace

MemorySystem::MemorySystem(const DdcConfig& config,
                           const sim::CostParams& params,
                           uint64_t address_space_capacity)
    : config_(config),
      params_(params),
      space_(address_space_capacity, params.page_size),
      fabric_(params, std::max(1, config.compute_nodes),
              std::max(1, config.memory_shards)),
      caches_(static_cast<size_t>(std::max(1, config.compute_nodes)),
              ComputeCache(config, params.page_size)),
      shards_(static_cast<size_t>(std::max(1, config.memory_shards)),
              PoolShard(config, params.page_size)),
      pages_per_shard_(PagesPerShard(address_space_capacity, params.page_size,
                                     config.memory_shards)) {
  TELEPORT_CHECK(config.compute_nodes >= 1 && config.memory_shards >= 1)
      << "a rack has at least one compute node and one memory shard; got "
      << config.compute_nodes << "x" << config.memory_shards;
  if (config.compute_nodes > 1 || config.memory_shards > 1) {
    TELEPORT_CHECK(config.platform == Platform::kBaseDdc)
        << "multi-node racks only exist on the kBaseDdc platform";
  }
  // TELEPORT_SCALAR_DATAPATH=1 keeps pins from filling, so every access
  // takes the full dispatch; CI re-runs the explore tier under it to check
  // that path against the sequential goldens.
  scalar_datapath_ = SwitchFromEnv("TELEPORT_SCALAR_DATAPATH");
}

MemorySystem::PageState& MemorySystem::PS(PageId p) {
  TELEPORT_DCHECK(p < pages_.size()) << "access beyond allocated pages";
  return pages_[p];
}

const MemorySystem::PageState& MemorySystem::PS(PageId p) const {
  TELEPORT_DCHECK(p < pages_.size());
  return pages_[p];
}

void MemorySystem::GrowPageTables() {
  const uint64_t n = space_.num_pages();
  pages_.resize(n);
  table_bytes_ = n * space_.page_size();
  for (ComputeCache& c : caches_) c.EnsureSize(n);
  for (PoolShard& sh : shards_) sh.EnsureSize(n);
  // pages_ may have reallocated: every PageState pointer held by a pin is
  // dangling. Unconditional (memory safety, not protocol).
  InvalidateAllPins();
}

void MemorySystem::SeedData() {
  EnsurePageTables();
  InvalidateAllPins();  // staging rewrites placement state wholesale
  for (PageId p = 0; p < pages_.size(); ++p) {
    PageState& s = pages_[p];
    if (s.compute_perm != Perm::kNone || in_memory_pool(p) || s.on_storage) {
      continue;  // already placed somewhere
    }
    switch (config_.platform) {
      case Platform::kLocal:
        break;  // no placement bookkeeping needed
      case Platform::kLinuxSsd:
        // Local DRAM first; overflow lives on the SSD (swapped out).
        if (caches_[0].Full()) {
          s.on_storage = true;
        } else {
          CacheMap(0, p, Perm::kWrite);
        }
        break;
      case Platform::kBaseDdc:
        // Data is staged in its home shard, spilling to storage rather than
        // evicting; the compute caches start cold.
        if (ShardFor(p).Full()) {
          s.on_storage = true;
        } else {
          ShardFor(p).Admit(p, CannotEvict);
        }
        break;
    }
  }
}

void MemorySystem::ChargeDram(ExecutionContext& ctx, PageId page,
                              uint64_t len) {
  const Nanos byte_cost = static_cast<Nanos>(
      static_cast<double>(len) * params_.dram_seq_ns_per_byte);
  // Within a tracked stream's current page: prefetched, cheap.
  for (PageId& s : ctx.streams_) {
    if (page == s) {
      ctx.clock_.Advance(params_.dram_seq_access_ns + byte_cost);
      return;
    }
  }
  // Advancing a stream to its next page: one row-miss / TLB fill.
  for (PageId& s : ctx.streams_) {
    if (s != kNoPage && page == s + 1) {
      s = page;
      ctx.clock_.Advance(params_.dram_random_access_ns + byte_cost);
      return;
    }
  }
  // Genuinely random access: row miss, and it claims a stream slot.
  ctx.streams_[ctx.stream_clock_] = page;
  ctx.stream_clock_ = (ctx.stream_clock_ + 1) % ExecutionContext::kStreams;
  ctx.clock_.Advance(params_.dram_random_access_ns + byte_cost);
}

void MemorySystem::FillPin(ExecutionContext& ctx, PagePin& pin, PageId page) {
  pin.Reset();
  if (scalar_datapath_) return;  // pins never validate: pure scalar dispatch
  // The closed-form charge replays ChargeDram's sequential branch, which is
  // only taken while the page occupies one of the context's stream slots.
  PageId* slot = nullptr;
  for (PageId& s : ctx.streams_) {
    if (s == page) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) return;
  PageState& s = pages_[page];
  switch (ctx.pool_) {
    case Pool::kCompute:
      switch (config_.platform) {
        case Platform::kLocal:
          // LocalTouch charges DRAM only: no counters, no replacement.
          pin.read_ok = pin.write_ok = true;
          break;
        case Platform::kLinuxSsd:
        case Platform::kBaseDdc:
          // Only this node's pages can hit; another client's page takes the
          // migration path, an uncached one the fault path.
          if (!caches_[static_cast<size_t>(ctx.node_)].Contains(page)) return;
          pin.read_ok = true;
          // A write to a read-only page takes the upgrade path: not a hit.
          pin.write_ok = s.compute_perm == Perm::kWrite;
          pin.hit_counter = &ctx.metrics_.cache_hits;
          pin.dirty_flag = &s.compute_dirty;
          pin.cache = &caches_[static_cast<size_t>(ctx.node_)];
          // Only the DDC reports accesses to an observer.
          pin.notify = observer_ != nullptr &&
                       config_.platform == Platform::kBaseDdc;
          break;
      }
      break;
    case Pool::kMemory:
      if (!in_memory_pool(page)) return;
      if (pushdown_active_ && coherence_mode_ != CoherenceMode::kNone) {
        if (s.temp_perm == Perm::kNone) return;
        pin.read_ok = true;
        pin.write_ok = s.temp_perm == Perm::kWrite;
      } else {
        pin.read_ok = pin.write_ok = true;
      }
      pin.hit_counter = &ctx.metrics_.memory_pool_hits;
      pin.dirty_flag = &s.mem_dirty;
      if (pushdown_active_) pin.touched_flag = &s.temp_touched;
      pin.shard = &ShardFor(page);  // MemoryTouch promotes unconditionally
      pin.notify = observer_ != nullptr;
      break;
  }
  const uint64_t page_size = params_.page_size;
  pin.v_lo = static_cast<VAddr>(page) * page_size;
  pin.v_hi = pin.v_lo + page_size - 1;  // used_bytes is page-aligned
  // A store into a staged dataset must reach AccessImpl, which notes it.
  if (space_.WriteProtected(pin.v_lo)) pin.write_ok = false;
  pin.host = static_cast<std::byte*>(space_.HostPtr(pin.v_lo, page_size));
  pin.page = page;
  pin.stream_slot = slot;
  pin.seq_ns = params_.dram_seq_access_ns;
  pin.ns_per_byte = params_.dram_seq_ns_per_byte;
  pin.map_epoch = mapping_epoch_;
  pin.page_epoch = s.tlb_epoch;
  pin.page_epoch_ptr = &s.tlb_epoch;
}

void MemorySystem::LocalTouch(ExecutionContext& ctx, PageId page, uint64_t len,
                              bool write) {
  (void)write;
  ChargeDram(ctx, page, len);
}

void MemorySystem::LinuxSsdTouch(ExecutionContext& ctx, PageId page,
                                 uint64_t len, bool write) {
  PageState& s = PS(page);
  if (s.compute_perm == Perm::kNone) {
    // Major or minor fault.
    ++ctx.metrics_.cache_misses;
    if (s.on_storage) {
      const bool seq = page == ctx.last_fault_page_ + 1;
      ctx.clock_.Advance(seq ? params_.ssd_seq_page_ns
                             : params_.ssd_random_page_ns);
      ++ctx.metrics_.storage_reads;
    } else {
      ctx.clock_.Advance(params_.minor_fault_ns);
    }
    ctx.last_fault_page_ = page;
    CacheInsert(ctx, page, write ? Perm::kWrite : Perm::kRead, write);
  } else {
    ++ctx.metrics_.cache_hits;
    caches_[static_cast<size_t>(ctx.node_)].OnHit(page);
    if (write && s.compute_perm != Perm::kWrite) {
      s.compute_perm = Perm::kWrite;
      BumpTlbEpoch(page);
      ctx.clock_.Advance(params_.perm_upgrade_ns);
    }
    if (write) s.compute_dirty = true;
  }
  ChargeDram(ctx, page, len);
}

Nanos MemorySystem::EnsureInMemoryPoolCost(ExecutionContext& ctx,
                                           PageId page) {
  PageState& s = PS(page);
  PoolShard& shard = ShardFor(page);
  if (shard.Contains(page)) {
    shard.Touch(page);
    return 0;
  }
  Nanos cost = params_.minor_fault_ns;  // zero-fill allocation in the pool
  if (s.on_storage) {
    const bool seq = page == ctx.last_fault_page_ + 1;
    cost = seq ? params_.ssd_seq_page_ns : params_.ssd_random_page_ns;
    ctx.last_fault_page_ = page;
    ++ctx.metrics_.storage_reads;
  }
  PoolAdmit(ctx, page);
  BumpTlbEpoch(page);  // the page's pool residency changes
  return cost;
}

bool MemorySystem::PoolAdmit(ExecutionContext& ctx, PageId page) {
  return ShardFor(page).Admit(
      page, [&](PageId victim) { EvictPoolPage(ctx, victim); });
}

void MemorySystem::EvictPoolPage(ExecutionContext& ctx, PageId victim) {
  BumpTlbEpoch(victim);  // shootdown before the victim's state is rewritten
  PageState& v = pages_[victim];
  if (v.mem_dirty || !v.on_storage) {
    ctx.clock_.Advance(params_.ssd_write_page_ns);
    ++ctx.metrics_.storage_writes;
    v.on_storage = true;
    v.mem_dirty = false;
  }
  // The page now has a storage copy: its redo record is redundant.
  JournalTruncate(victim, ctx.now());
}

void MemorySystem::EmitProtocolInstant(std::string_view name, PageId page,
                                       Nanos at) {
  tracer_->Instant("coherence", name, at, sim::kTrackCoherence,
                   "\"page\":" + std::to_string(page));
}

void MemorySystem::EmitCacheInstant(std::string_view name, PageId page,
                                    Nanos at) {
  tracer_->Instant("cache", name, at, sim::kTrackCompute,
                   "\"page\":" + std::to_string(page));
}

void MemorySystem::EvictCachePage(ExecutionContext& ctx, PageId victim,
                                  NodeId holder) {
  BumpTlbEpoch(victim);  // shootdown before the victim loses its mapping
  PageState& v = pages_[victim];
  CacheUnmap(holder, victim);
  ++ctx.metrics_.cache_evictions;
  if (!v.compute_dirty) {
    TraceCache("Evict", victim, ctx.now());
    if (config_.platform == Platform::kBaseDdc) {
      Notify(CoherenceEvent::Kind::kComputeEvict, victim, false, ctx.now());
    }
    return;
  }
  v.compute_dirty = false;
  ++ctx.metrics_.dirty_writebacks;
  if (config_.platform == Platform::kLinuxSsd) {
    ctx.clock_.Advance(params_.ssd_write_page_ns);
    ++ctx.metrics_.storage_writes;
    v.on_storage = true;
    TraceCache("Writeback", victim, ctx.now());
    return;
  }
  // DDC: write the page back to its home shard over the evicting node's
  // link (for a cross-node migration the traffic leaves the old holder).
  const net::Link link{static_cast<int>(holder), ShardOf(victim)};
  const Nanos delivered =
      fabric_.SendToMemory(link, ctx.now(), params_.page_size + 64);
  SettleTransfer(ctx, delivered, 1, params_.page_size + 64);
  ctx.metrics_.bytes_to_memory_pool += params_.page_size;
  // The pool materializes the page (no storage read: data came from
  // compute). Ack point of the writeback: the pool acknowledges once the
  // redo record is durable, so the journal commit precedes the eviction
  // event.
  PoolWriteback(ctx, victim, /*promote=*/true);
  TraceCache("Writeback", victim, ctx.now());
  Notify(CoherenceEvent::Kind::kComputeEvict, victim, false, ctx.now());
}

void MemorySystem::CacheInsert(ExecutionContext& ctx, PageId page, Perm perm,
                               bool dirty, bool trace) {
  PageState& s = PS(page);
  TELEPORT_DCHECK(s.compute_perm == Perm::kNone);
  ComputeCache& cache = caches_[static_cast<size_t>(ctx.node_)];
  if (cache.Full()) EvictCachePage(ctx, cache.Victim(), ctx.node_);
  // After the possible eviction (whose own shootdown precedes its event) so
  // the fill's shootdown is still outstanding when the access event fires.
  BumpTlbEpoch(page);
  s.compute_dirty = dirty;
  CacheMap(ctx.node_, page, perm);
  if (trace) TraceCache("Fill", page, ctx.now());
}

NodeId MemorySystem::CacheHolder(PageId page) const {
  for (NodeId n = 0;; ++n) {
    TELEPORT_CHECK(n < compute_nodes()) << "page " << page << " is not cached";
    if (caches_[static_cast<size_t>(n)].Contains(page)) return n;
  }
}

void MemorySystem::PoolWriteback(ExecutionContext& ctx, PageId page,
                                 bool promote) {
  if (PoolAdmit(ctx, page) && promote) ShardFor(page).Touch(page);
  pages_[page].mem_dirty = true;
  JournalCommit(&ctx, page, ctx.now());
}

void MemorySystem::SettleTransfer(ExecutionContext& ctx, Nanos done,
                                  uint64_t messages, uint64_t bytes) {
  ctx.clock_.AdvanceTo(done);
  fabric_.DrainQueueStats(ctx.metrics_);
  ctx.metrics_.net_messages += messages;
  ctx.metrics_.net_bytes += bytes;
}

void MemorySystem::ComputeTouch(ExecutionContext& ctx, PageId page,
                                uint64_t len, bool write) {
  PageState& s = PS(page);
  ComputeCache& cache = caches_[static_cast<size_t>(ctx.node_)];
  // Cross-node migration: exactly one client may cache a page, keeping the
  // §4.1 protocol two-sided on the rack. A touch from a different client
  // first evicts the current holder's copy (dirty data rides the old
  // holder's link home), then faults the page in here like any miss.
  if (s.compute_perm != Perm::kNone && !cache.Contains(page)) {
    EvictCachePage(ctx, page, CacheHolder(page));
  }
  const bool sufficient =
      s.compute_perm == Perm::kWrite ||
      (!write && s.compute_perm == Perm::kRead);
  if (sufficient) {
    ++ctx.metrics_.cache_hits;
    cache.OnHit(page);
  } else if (pushdown_active_ && coherence_mode_ != CoherenceMode::kNone) {
    CoherenceComputeFault(ctx, page, write);
  } else if (s.compute_perm != Perm::kNone) {
    // Local R->W upgrade; the cached copy is the only one being written.
    ++ctx.metrics_.cache_hits;
    cache.OnHit(page);
    BumpTlbEpoch(page);
    s.compute_perm = Perm::kWrite;
    ctx.clock_.Advance(params_.perm_upgrade_ns);
  } else {
    // Full miss: fault to the page's home shard.
    const net::Link link{static_cast<int>(ctx.node_), ShardOf(page)};
    ++ctx.metrics_.cache_misses;
    const bool has_remote_data = in_memory_pool(page) || s.on_storage;
    const bool sequential_fault =
        ctx.last_fault_page_ != kNoPage && page == ctx.last_fault_page_ + 1;
    Nanos handler = params_.fault_handler_ns;
    uint64_t resp_bytes = 64;
    if (has_remote_data) {
      handler += EnsureInMemoryPoolCost(ctx, page);
      resp_bytes += params_.page_size;
    }
    // Sequential prefetch (LegoOS-style, off by default): a fault that
    // extends the previous fault's stream pulls the next pages in the
    // same reply. Disabled during pushdown sessions (the temporary
    // context owns the coherence state then). A reply carries pages of
    // one shard only, so the batch stops at the shard boundary.
    std::vector<PageId> prefetch;
    if (config_.prefetch_pages > 0 && sequential_fault && has_remote_data &&
        !pushdown_active_) {
      for (int i = 1; i <= config_.prefetch_pages; ++i) {
        const PageId next = page + static_cast<PageId>(i);
        if (next >= space_.num_pages()) break;
        if (ShardOf(next) != link.dst) break;
        PageState& ns = pages_[next];
        if (ns.compute_perm != Perm::kNone) break;
        if (!in_memory_pool(next) && !ns.on_storage) break;
        handler += EnsureInMemoryPoolCost(ctx, next);
        resp_bytes += params_.page_size;
        prefetch.push_back(next);
      }
    }
    // First touch of an anonymous page still round-trips to the pool: the
    // disaggregated OS forwards all new allocations through the memory
    // pool's controller (§3), but no page payload moves. A lost fault RPC
    // is retried (§3.2); after 16 exhausted rounds the reliable transport,
    // which retransmits below the RPC layer, carries it, so forward
    // progress never depends on the injector's schedule.
    const tp::RetryResult rpc = tp::Retry(
        fabric_, link.dst, tp::RetryPolicy{}, retry_rng_, ctx.now(),
        /*rounds=*/16,
        [&](Nanos t) {
          return fabric_.TryRoundTripFromCompute(
              link, t, 64, resp_bytes, handler,
              net::MessageKind::kPageFaultRequest,
              net::MessageKind::kPageFaultReply);
        },
        [](Nanos) {});
    ctx.metrics_.retries += rpc.retries;
    ctx.metrics_.fault_events += rpc.retries;
    SettleTransfer(ctx,
                   rpc.delivered ? rpc.outcome.deliver_at
                                 : fabric_.RoundTripFromCompute(
                                       link, rpc.at, 64, resp_bytes, handler),
                   2, 64 + resp_bytes);
    if (has_remote_data) {
      ctx.metrics_.bytes_from_memory_pool +=
          params_.page_size * (1 + prefetch.size());
    }
    ctx.last_fault_page_ = page + static_cast<PageId>(prefetch.size());
    for (const PageId p : prefetch) {
      CacheInsert(ctx, p, Perm::kRead, /*dirty=*/false);
      ++ctx.metrics_.prefetched_pages;
      Notify(CoherenceEvent::Kind::kPrefetchFill, p, false, ctx.now());
    }
    CacheInsert(ctx, page, write ? Perm::kWrite : Perm::kRead, write);
  }
  if (write) s.compute_dirty = true;
  ChargeDram(ctx, page, len);
  Notify(CoherenceEvent::Kind::kComputeAccess, page, write, ctx.now());
}

void MemorySystem::MemoryTouch(ExecutionContext& ctx, PageId page,
                               uint64_t len, bool write) {
  TELEPORT_DCHECK(config_.platform == Platform::kBaseDdc)
      << "memory-pool contexts only exist on DDC platforms";
  PageState& s = PS(page);
  if (pushdown_active_ && coherence_mode_ != CoherenceMode::kNone) {
    const bool sufficient =
        s.temp_perm == Perm::kWrite || (!write && s.temp_perm == Perm::kRead);
    if (!sufficient) CoherenceMemoryFault(ctx, page, write);
  }
  PoolShard& shard = ShardFor(page);
  if (!shard.Contains(page)) {
    // True page fault: to storage (or zero-fill), no compute communication.
    const Nanos cost = EnsureInMemoryPoolCost(ctx, page);
    ctx.clock_.Advance(cost);
    ++ctx.metrics_.memory_pool_faults;
  } else {
    ++ctx.metrics_.memory_pool_hits;
    shard.Touch(page);
  }
  if (write) {
    s.mem_dirty = true;
    if (pushdown_active_) s.temp_touched = true;
  }
  ChargeDram(ctx, page, len);
  Notify(CoherenceEvent::Kind::kMemoryAccess, page, write, ctx.now());
}

void MemorySystem::CoherenceComputeFault(ExecutionContext& ctx, PageId page,
                                         bool write) {
  PageState& s = PS(page);
  const Nanos start = ctx.now();
  BumpTlbEpoch(page);  // every coherence transition is a shootdown

  // Weak Ordering: contended permission changes are silent; only data
  // movement (page absent from the cache) costs anything.
  if (coherence_mode_ == CoherenceMode::kWeakOrdering &&
      s.compute_perm != Perm::kNone) {
    s.compute_perm = Perm::kWrite;
    ctx.clock_.Advance(params_.perm_upgrade_ns);
    return;
  }

  // §4.1 concurrent-fault tiebreak: if the memory side has an upgrade
  // request in flight for this page, the compute pool loses, satisfies the
  // memory pool, and retries after a backoff.
  if (write && start < s.mem_upgrade_inflight_until) {
    ctx.clock_.AdvanceTo(s.mem_upgrade_inflight_until + kTiebreakBackoffNs);
  }

  const bool need_data = s.compute_perm == Perm::kNone;
  Nanos handler = params_.fault_handler_ns + params_.coherence_overhead_ns;
  uint64_t resp_bytes = 64;
  if (need_data) {
    handler += EnsureInMemoryPoolCost(ctx, page);
    resp_bytes += params_.page_size;
  }

  // Memory-side handler: Invalidate(t_pte, write) per Fig 8/9.
  if (coherence_mode_ != CoherenceMode::kWeakOrdering &&
      mutation_ != ProtocolMutation::kSkipInvalidation) {
    if (write) {
      if (s.temp_perm != Perm::kNone) {
        if (coherence_mode_ == CoherenceMode::kPso) {
          s.temp_perm = Perm::kRead;
          ++ctx.metrics_.coherence_downgrades;
          TraceProtocol("Downgrade", page, ctx.now());
        } else {
          s.temp_perm = Perm::kNone;
          ++ctx.metrics_.coherence_invalidations;
          TraceProtocol("Invalidate", page, ctx.now());
        }
      }
    } else if (s.temp_perm == Perm::kWrite) {
      s.temp_perm = Perm::kRead;
      ++ctx.metrics_.coherence_downgrades;
      TraceProtocol("Downgrade", page, ctx.now());
    }
  }

  const net::Link link{static_cast<int>(ctx.node_), ShardOf(page)};
  SettleTransfer(ctx,
                 fabric_.RoundTripFromCompute(link, ctx.now(), 64, resp_bytes,
                                              handler),
                 2, 64 + resp_bytes);
  ctx.coherence_ns_ += ctx.now() - start;
  ctx.metrics_.coherence_messages += 2;

  if (need_data) {
    ++ctx.metrics_.cache_misses;
    if (in_memory_pool(page) || s.on_storage) {
      ctx.metrics_.bytes_from_memory_pool += params_.page_size;
    }
    CacheInsert(ctx, page, write ? Perm::kWrite : Perm::kRead, write);
  } else {
    s.compute_perm = write ? Perm::kWrite : Perm::kRead;
  }
}

void MemorySystem::CoherenceMemoryFault(ExecutionContext& ctx, PageId page,
                                        bool write) {
  PageState& s = PS(page);
  const Perm wanted = write ? Perm::kWrite : Perm::kRead;
  BumpTlbEpoch(page);  // every coherence transition is a shootdown

  // Weak Ordering: no invalidation traffic; both sides may hold writable
  // copies. Data movement still happens through the regular fault path.
  if (coherence_mode_ == CoherenceMode::kWeakOrdering) {
    s.temp_perm = wanted;
    return;
  }

  if (s.compute_perm == Perm::kNone) {
    // 'True' page fault (Fig 9 line 14): the page is not cached in the
    // compute pool; MemoryTouch will fetch it from storage if necessary.
    s.temp_perm = wanted;
    return;
  }

  // Some compute node caches the page: issue a coherence request to it over
  // its own link to this page's home shard.
  const Nanos start = ctx.now();
  const net::Link link{static_cast<int>(CacheHolder(page)), ShardOf(page)};
  // Fresher data lives in the cache and must come back with the reply.
  const bool page_back = s.compute_dirty &&
                         mutation_ != ProtocolMutation::kSkipPageReturn;
  Nanos handler = params_.coherence_overhead_ns + params_.perm_upgrade_ns;
  uint64_t resp_bytes = 64 + (page_back ? params_.page_size : 0);

  if (write) {
    // ComputeOnPageRequest (Fig 9 lines 18-25): evict (default) or
    // downgrade (PSO) the compute copy.
    if (coherence_mode_ == CoherenceMode::kPso) {
      s.compute_perm = Perm::kRead;
      ++ctx.metrics_.coherence_downgrades;
      TraceProtocol("Downgrade", page, ctx.now());
    } else {
      CacheUnmap(link.src, page);
      ++ctx.metrics_.coherence_invalidations;
      ++ctx.metrics_.cache_evictions;
      TraceProtocol("Invalidate", page, ctx.now());
    }
  } else if (s.compute_perm == Perm::kWrite) {
    s.compute_perm = Perm::kRead;
    ++ctx.metrics_.coherence_downgrades;
    TraceProtocol("Downgrade", page, ctx.now());
  }
  if (page_back) {
    s.compute_dirty = false;
    s.mem_dirty = true;
    ++ctx.metrics_.coherence_page_returns;
    ctx.metrics_.bytes_to_memory_pool += params_.page_size;
    TraceProtocol("PageReturn", page, ctx.now());
    // The returned page is fresh pool state the compute copy no longer
    // backs up: acknowledge it into the journal.
    JournalCommit(&ctx, page, ctx.now());
  }

  const Nanos done =
      fabric_.RoundTripFromMemory(link, ctx.now(), 64, resp_bytes, handler);
  if (write) {
    // Record the §4.1 in-flight window so a racing compute-side write
    // fault loses the tiebreak.
    s.mem_upgrade_inflight_until = done;
  }
  SettleTransfer(ctx, done, 2, 64 + resp_bytes);
  ctx.coherence_ns_ += ctx.now() - start;
  ctx.metrics_.coherence_messages += 2;

  s.temp_perm = wanted;
}

std::vector<PageEntry> MemorySystem::ResidentPages() const {
  std::vector<PageEntry> out;
  out.reserve(cache_pages_used());
  for (PageId p = 0; p < pages_.size(); ++p) {
    const PageState& s = pages_[p];
    if (s.compute_perm != Perm::kNone) {
      out.push_back(PageEntry{p, s.compute_perm == Perm::kWrite});
    }
  }
  return out;  // sorted by construction
}

void MemorySystem::BeginPushdownSession(CoherenceMode mode,
                                        uint64_t admit_epoch,
                                        int home_shard) {
  EnsurePageTables();
  if (pushdown_active_) {
    // Concurrent request from another thread of the same process: shares
    // the existing temporary context and page table (§3.2).
    TELEPORT_CHECK(mode == coherence_mode_)
        << "concurrent pushdown sessions must agree on coherence mode";
    ++session_refcount_;
    return;
  }
  pushdown_active_ = true;
  session_refcount_ = 1;
  coherence_mode_ = mode;
  for (PageId p = 0; p < pages_.size(); ++p) {
    PageState& s = pages_[p];
    s.temp_touched = false;
    s.mem_upgrade_inflight_until = 0;
    if (mode == CoherenceMode::kNone) {
      s.temp_perm = Perm::kWrite;  // unrestricted; user syncs manually
      continue;
    }
    // Fig 8: clone of the full table, minus compute-writable pages, with
    // compute-read-only pages mapped read-only.
    switch (s.compute_perm) {
      case Perm::kWrite:
        s.temp_perm = Perm::kNone;
        break;
      case Perm::kRead:
        s.temp_perm = Perm::kRead;
        break;
      case Perm::kNone:
        s.temp_perm = Perm::kWrite;
        break;
    }
  }
  BumpTlbEpochAll();  // temp table materialized; pool-side pins must refill
  Notify(CoherenceEvent::Kind::kSessionBegin, 0, false, 0,
         admit_epoch == kCurrentEpoch ? pool_epoch(home_shard) : admit_epoch,
         home_shard);
}

void MemorySystem::EndPushdownSession(ExecutionContext* ctx) {
  TELEPORT_CHECK(pushdown_active_);
  if (--session_refcount_ > 0) return;
  for (PageId p = 0; p < pages_.size(); ++p) {
    PageState& s = pages_[p];
    // Dirty bits of the temporary context merge into the full table with no
    // external communication (§4.1); temp writes already marked mem_dirty.
    // With journaling on, the merge is where session writes become
    // acknowledged pool state: each touched dirty page gets a redo record
    // in its home shard's journal (group-commit batching amortizes the
    // flushes).
    if (journal_enabled_ && s.temp_touched && s.mem_dirty) {
      JournalCommit(ctx, p, ctx != nullptr ? ctx->now() : 0);
    }
    s.temp_perm = Perm::kNone;
    s.temp_touched = false;
    s.mem_upgrade_inflight_until = 0;
  }
  pushdown_active_ = false;
  BumpTlbEpochAll();  // temp table torn down
  Notify(CoherenceEvent::Kind::kSessionEnd, 0, false, 0);
}

void MemorySystem::Syncmem(ExecutionContext& ctx, VAddr addr, uint64_t len) {
  EnsurePageTables();
  if (len == 0) return;  // else the last page index below wraps around
  const uint64_t page_size = params_.page_size;
  const PageId first = addr / page_size;
  const PageId last = (addr + len - 1) / page_size;
  uint64_t flushed = 0;
  std::vector<uint64_t> per_shard(shards_.size(), 0);
  const ComputeCache& cache = caches_[static_cast<size_t>(ctx.node_)];
  for (PageId p = first; p <= last && p < pages_.size(); ++p) {
    PageState& s = pages_[p];
    // Another client's pages are not this node's to flush.
    if (!s.compute_dirty || !cache.Contains(p)) continue;
    BumpTlbEpoch(p);  // per-page: write permission drops to read
    s.compute_dirty = false;
    s.compute_perm = Perm::kRead;
    // The pool now holds fresh data; a temporary context may map it R.
    if (pushdown_active_ && coherence_mode_ != CoherenceMode::kNone &&
        s.temp_perm == Perm::kNone) {
      s.temp_perm = Perm::kRead;
    }
    PoolWriteback(ctx, p, /*promote=*/false);
    ++flushed;
    ++per_shard[static_cast<size_t>(ShardOf(p))];
    Notify(CoherenceEvent::Kind::kSyncmemPage, p, false, ctx.now());
  }
  if (flushed == 0) return;
  // One grouped transfer per destination shard, all issued at the same
  // instant; the syscall returns when the slowest shard acknowledges. With
  // one shard this is exactly the legacy single message. Each group is a
  // scatter-gather verb: one 64-byte header plus one gather segment per
  // page, so contended backends ring a single doorbell per shard.
  const uint64_t groups = static_cast<uint64_t>(
      std::count_if(per_shard.begin(), per_shard.end(),
                    [](uint64_t n) { return n > 0; }));
  const Nanos delivered = fabric_.SendPages(
      ctx.node_, ctx.now(), per_shard, /*header=*/64, /*to_memory=*/true,
      net::MessageKind::kSyncmem, /*stream=*/false);
  SettleTransfer(ctx, delivered + params_.fault_handler_ns, groups,
                 flushed * page_size + 64 * groups);
  ctx.metrics_.bytes_to_memory_pool += flushed * page_size;
  ctx.metrics_.syncmem_pages += flushed;
}

uint64_t MemorySystem::FlushAllCache(ExecutionContext& ctx, bool drop) {
  return FlushRange(ctx, 0, space_.used_bytes(), drop);
}

uint64_t MemorySystem::FlushRange(ExecutionContext& ctx, VAddr addr,
                                  uint64_t len, bool drop) {
  EnsurePageTables();
  if (len == 0) return 0;
  const PageId first = addr / params_.page_size;
  const PageId last =
      std::min<PageId>((addr + len - 1) / params_.page_size,
                       pages_.empty() ? 0 : pages_.size() - 1);
  uint64_t moved = 0;
  uint64_t transferred = 0;
  std::vector<uint64_t> per_shard(shards_.size(), 0);
  flushed_pages_.clear();
  const ComputeCache& cache = caches_[static_cast<size_t>(ctx.node_)];
  for (PageId p = first; p <= last && p < pages_.size(); ++p) {
    // Another client's pages are not this node's to flush.
    if (!cache.Contains(p)) continue;
    PageState& s = pages_[p];
    BumpTlbEpoch(p);  // per-page unmap / writeback
    ++moved;
    flushed_pages_.push_back(p);
    if (s.compute_dirty) {
      // Dirty pages are written back over the fabric to their home shard.
      ++transferred;
      ++per_shard[static_cast<size_t>(ShardOf(p))];
      s.compute_dirty = false;
      PoolWriteback(ctx, p, /*promote=*/false);
    } else {
      // Clean pages move no data but still go through the page-by-page
      // eviction path (unmap + TLB shootdown per page).
      ctx.clock_.Advance(params_.eager_sync_per_page_ns / 2);
    }
    if (drop) CacheUnmap(ctx.node_, p);
    Notify(CoherenceEvent::Kind::kFlushPage, p, drop, ctx.now());
  }
  if (moved == 0) return 0;
  const uint64_t bytes = transferred * params_.page_size;
  SettleTransfer(ctx, StreamPages(ctx, per_shard, /*to_memory=*/true),
                 transferred + 1, bytes + 64);
  ctx.metrics_.bytes_to_memory_pool += bytes;
  return moved;
}

void MemorySystem::BulkRefetch(ExecutionContext& ctx, uint64_t pages) {
  if (pages == 0) return;
  // Repopulate the pages flushed by the last FlushAllCache(drop=true).
  uint64_t refetched = 0;
  std::vector<uint64_t> per_shard(shards_.size(), 0);
  for (PageId p : flushed_pages_) {
    if (refetched >= pages) break;
    if (PS(p).compute_perm != Perm::kNone) continue;
    CacheInsert(ctx, p, Perm::kRead, /*dirty=*/false, /*trace=*/false);
    ++refetched;
    ++per_shard[static_cast<size_t>(ShardOf(p))];
    Notify(CoherenceEvent::Kind::kRefetchPage, p, false, ctx.now());
  }
  const uint64_t bytes = refetched * params_.page_size;
  SettleTransfer(ctx, StreamPages(ctx, per_shard, /*to_memory=*/false),
                 refetched, bytes);
  ctx.metrics_.bytes_from_memory_pool += bytes;
}

Nanos MemorySystem::StreamPages(ExecutionContext& ctx,
                                const std::vector<uint64_t>& per_shard,
                                bool to_memory) {
  uint64_t pages = 0;
  for (const uint64_t n : per_shard) pages += n;
  const Nanos delivered = fabric_.SendPages(
      ctx.node_, ctx.now(), per_shard, /*header=*/0, to_memory,
      to_memory ? net::MessageKind::kPageReturn
                : net::MessageKind::kPageFaultReply,
      /*stream=*/true);
  return delivered + static_cast<Nanos>(pages) * params_.eager_sync_per_page_ns;
}

MemorySystem::RestartOutcome MemorySystem::ApplyPoolRestartsAt(
    ExecutionContext& ctx, Nanos now) {
  RestartOutcome out;
  const net::FaultInjector* inj = fabric_.fault_injector();
  if (inj == nullptr) return out;
  // Shards restart independently: a crash of shard A wipes (and replays)
  // only A's page range, journal, and epoch. Ascending order keeps the
  // event sequence deterministic when several shards restarted by `now`.
  for (int shard = 0; shard < memory_shards(); ++shard) {
    PoolShard& sh = shards_[static_cast<size_t>(shard)];
    // Each completed crash-restart window opens a fresh lease epoch, even
    // when several windows are absorbed in one batch: sessions admitted
    // under any earlier epoch of this shard must be fenced.
    if (sh.AbsorbRestarts(inj->CrashRestartsCompletedBy(now, shard)) == 0) {
      continue;
    }
    EnsurePageTables();
    BumpTlbEpochAll();  // the shard's page-table slice is wiped wholesale
    // The restarted shard comes back with empty DRAM: every pool-resident
    // page of its range is dropped. Pages whose bytes were flushed to
    // storage are recoverable (refaulted on demand). Unflushed writes are
    // gone unless this shard's journal holds their redo record; writes that
    // bypassed an acknowledgement point (direct pool stores outside any
    // session) are genuinely unrecoverable and get reported. Compute-cache
    // pages and other shards are untouched.
    const bool replay =
        journal_enabled_ && mutation_ != ProtocolMutation::kSkipJournalReplay;
    uint64_t lost = 0;
    for (PageId p = static_cast<PageId>(shard) * pages_per_shard_;
         p < pages_.size() && ShardOf(p) == shard; ++p) {
      PageState& s = pages_[p];
      if (sh.Contains(p) && s.mem_dirty && !(replay && sh.journal().Has(p))) {
        s.mem_dirty = false;
        ++lost;
      }
    }
    sh.Wipe();
    out.lost += lost;
    lost_pool_writes_ += lost;
    ctx.metrics_.lost_pool_writes += lost;
    if (tracer_ != nullptr) {
      tracer_->Instant("coherence", "PoolRestart", now, sim::kTrackCoherence,
                       "\"lost_writes\":" + std::to_string(lost));
    }
    Notify(CoherenceEvent::Kind::kPoolRestart, 0, false, now, sh.epoch(),
           shard);
    if (replay) {
      // Replay re-materializes every journaled page into this shard's DRAM,
      // dirty again (the storage copy, if any, predates the acknowledged
      // write). Records stay live so a back-to-back crash recovers them
      // again.
      uint64_t recovered = 0;
      for (const PageId p : sh.journal().LiveRecords()) {
        sh.Admit(p, CannotEvict);
        pages_[p].mem_dirty = true;
        ++recovered;
        Notify(CoherenceEvent::Kind::kPoolRecover, p, false, now, 0, shard);
      }
      out.recovery_ns += sh.journal().ReplayCost(recovered);
      out.recovered += recovered;
      recovered_pool_writes_ += recovered;
      ctx.metrics_.recovered_pool_writes += recovered;
      if (tracer_ != nullptr) {
        tracer_->Span("recovery", "JournalReplay", now,
                      sh.journal().ReplayCost(recovered), sim::kTrackMemoryPool,
                      "\"recovered\":" + std::to_string(recovered));
      }
    }
  }
  return out;
}

bool MemorySystem::AdmitPushdown(ExecutionContext& ctx, uint64_t token,
                                 Nanos at, int shard) {
  const bool duplicate =
      shards_[static_cast<size_t>(shard)].MarkExecuted(token);
  bool execute = !duplicate;
  if (duplicate) {
    if (mutation_ == ProtocolMutation::kReplayDuplicate) {
      execute = true;  // planted bug: the dedup table "forgets" the token
    } else {
      ++ctx.metrics_.dedup_hits;
    }
  }
  Notify(CoherenceEvent::Kind::kPushdownAdmit, token, execute, at, 0, shard);
  return execute;
}

void MemorySystem::JournalCommit(ExecutionContext* ctx, PageId page,
                                 Nanos at) {
  if (!journal_enabled_) return;
  const int shard = ShardOf(page);
  const Journal::AppendResult r =
      shards_[static_cast<size_t>(shard)].journal().Append(page);
  if (ctx != nullptr) {
    ctx->clock_.Advance(r.cost);
    ++ctx->metrics_.journal_appends;
    if (r.flushed) ++ctx->metrics_.journal_flushes;
    at = ctx->now();
  }
  Notify(CoherenceEvent::Kind::kJournalCommit, page, false, at, 0, shard);
}

void MemorySystem::JournalTruncate(PageId page, Nanos at) {
  if (!journal_enabled_) return;
  const int shard = ShardOf(page);
  if (shards_[static_cast<size_t>(shard)].journal().Truncate(page)) {
    Notify(CoherenceEvent::Kind::kJournalTruncate, page, false, at, 0, shard);
  }
}

uint64_t MemorySystem::CheckSwmrInvariant() const {
  uint64_t checked = 0;
  for (PageId p = 0; p < pages_.size(); ++p) {
    const PageState& s = pages_[p];
    const bool compute_w = s.compute_perm == Perm::kWrite;
    const bool temp_w = s.temp_perm == Perm::kWrite;
    TELEPORT_CHECK(!(compute_w && s.temp_perm != Perm::kNone))
        << "SWMR violated: compute W + temp " << static_cast<int>(s.temp_perm)
        << " on page " << p;
    TELEPORT_CHECK(!(temp_w && s.compute_perm != Perm::kNone))
        << "SWMR violated: temp W + compute "
        << static_cast<int>(s.compute_perm) << " on page " << p;
    ++checked;
  }
  return checked;
}

std::string MemorySystem::AuditPlacement() const {
  std::ostringstream os;
  std::vector<uint64_t> cache_members(caches_.size(), 0);
  std::vector<uint64_t> shard_members(shards_.size(), 0);
  for (PageId p = 0; p < pages_.size(); ++p) {
    const int home = ShardOf(p);
    for (size_t k = 0; k < shards_.size(); ++k) {
      if (!shards_[k].Contains(p)) continue;
      ++shard_members[k];
      if (static_cast<int>(k) != home) {
        os << "page " << p << " is in shard " << k
           << "'s list but its home shard is " << home;
        return os.str();
      }
    }
    int holders = 0;
    for (size_t n = 0; n < caches_.size(); ++n) {
      if (caches_[n].Contains(p)) {
        ++cache_members[n];
        ++holders;
      } else if (caches_[n].Referenced(p)) {
        os << "stale CLOCK bit: page " << p << " not in cache " << n;
        return os.str();
      }
    }
    if ((pages_[p].compute_perm != Perm::kNone) != (holders == 1)) {
      os << "page " << p << ": compute_perm="
         << static_cast<int>(pages_[p].compute_perm) << " but " << holders
         << " caches hold it";
      return os.str();
    }
  }
  auto count_mismatch = [&os](const char* what, size_t i, uint64_t used,
                              uint64_t members, uint64_t capacity) {
    if (used == members && used <= capacity) return false;
    os << what << " " << i << ": used()=" << used << " but " << members
       << " member pages, capacity " << capacity;
    return true;
  };
  for (size_t n = 0; n < caches_.size(); ++n) {
    const ComputeCache& c = caches_[n];
    if (count_mismatch("cache", n, c.used(), cache_members[n], c.capacity())) {
      return os.str();
    }
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    const PoolShard& sh = shards_[k];
    if (count_mismatch("shard", k, sh.used(), shard_members[k],
                       sh.capacity())) {
      return os.str();
    }
  }
  return "";
}

}  // namespace teleport::ddc
