#ifndef TELEPORT_DDC_MEMORY_SYSTEM_H_
#define TELEPORT_DDC_MEMORY_SYSTEM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rle.h"
#include "common/rng.h"
#include "common/units.h"
#include "ddc/address_space.h"
#include "ddc/execution_context.h"
#include "ddc/journal.h"
#include "ddc/placement.h"
#include "ddc/types.h"
#include "net/fabric.h"
#include "sim/cost_model.h"
#include "sim/metrics.h"

namespace teleport::ddc {

/// Coherence behavior of a pushdown session (§4.1 default and §4.2
/// relaxations, selected with the pushdown `flags` argument).
enum class CoherenceMode : uint8_t {
  kMesi,          ///< default write-invalidate protocol (SWMR invariant)
  kPso,           ///< write requests downgrade the other side to read-only
  kWeakOrdering,  ///< no invalidation traffic on contended writes
  kNone,          ///< coherence off; user synchronizes with syncmem
};

std::string_view CoherenceModeToString(CoherenceMode m);

/// Deliberate protocol bugs, injectable for testing the model checker (a
/// checker that has never caught a planted bug proves nothing). Off in all
/// production paths.
enum class ProtocolMutation : uint8_t {
  kNone,
  /// CoherenceComputeFault skips the memory-side invalidate/downgrade
  /// handler: the temporary context keeps stale permissions.
  kSkipInvalidation,
  /// CoherenceMemoryFault never returns the dirty compute page, so the
  /// temporary context reads stale pool data.
  kSkipPageReturn,
  /// Protocol transitions skip the translation-cache shootdown (the epoch
  /// bump), so pinned fast-path translations survive state changes they
  /// must not survive. The model checker asserts the bump on every
  /// transition, so this mutation is caught at the first one.
  kSkipTlbShootdown,
  /// Recovery treats journaled pages like unjournaled ones: acknowledged
  /// writes with live redo records are dropped instead of re-materialized.
  /// Model-checker invariant #6 sees the restart consume no kPoolRecover
  /// events for journaled pages and flags the loss.
  kSkipJournalReplay,
  /// The pushdown runtime admits RPCs under a stale pool epoch instead of
  /// fencing them after a recovery. The checker sees a kSessionBegin whose
  /// epoch lags the pool's and flags the half-done-effects hazard.
  kSkipFencing,
  /// The pool-side dedup table re-executes duplicate idempotency tokens
  /// (injected dup deliveries double-apply). The checker sees a second
  /// executed kPushdownAdmit for an already-executed token.
  kReplayDuplicate,
  /// The OLTP commit path (src/oltp) installs its write set without
  /// validating the read set: a transaction that raced a concurrent commit
  /// commits anyway (classic lost update). Model-checker invariant #7 sees
  /// a kTxnCommit whose read set no longer matches the shadow committed
  /// versions and flags it.
  kSkipOccValidation,
  /// The OLTP abort path releases record locks but "loses" its undo log:
  /// provisional values stay visible with no kTxnUndo events. Invariant #7
  /// turns every provisional install of an aborted transaction into an
  /// undo obligation, so the next transactional event (or Finish) flags
  /// the dirty data.
  kSkipAbortUndo,
};

/// A page-granular coherence/page-table transition, reported to an attached
/// CoherenceObserver *after* the implementation has applied it (so observers
/// can compare predicted state against the real page table). Only the
/// kBaseDdc paths emit events.
struct CoherenceEvent {
  enum class Kind : uint8_t {
    kSessionBegin,   ///< pushdown session activated (mode is valid)
    kSessionEnd,     ///< last concurrent session ended; temp table cleared
    kComputeAccess,  ///< ComputeTouch finished on `page` (write is valid)
    kMemoryAccess,   ///< MemoryTouch finished on `page` (write is valid)
    kComputeEvict,   ///< capacity eviction of `page` from the compute cache
    kPrefetchFill,   ///< `page` pulled read-only by sequential prefetch
    kSyncmemPage,    ///< `page` flushed clean by the syncmem syscall
    kFlushPage,      ///< `page` flushed by FlushRange (write := dropped)
    kRefetchPage,    ///< `page` re-cached read-only by BulkRefetch
    kPoolRestart,    ///< crash-restart wiped the memory pool (epoch is valid)
    kPoolRecover,    ///< `page` re-materialized from the journal after restart
    kJournalCommit,  ///< redo record for `page` made durable (ack point)
    kJournalTruncate,  ///< redo record for `page` dropped (reached storage)
    kPushdownAdmit,  ///< dedup decision: `page` is the token, write=executed
    // Engine-level transactional events (src/oltp, checker invariant #7).
    // `page` carries a record KEY (not a page id), `epoch` a record version
    // or commit sequence number, `node` the reporting session id.
    kTxnRead,    ///< execution-phase read observed (key, committed version)
    kTxnWrite,   ///< provisional install of (key, pending new version)
    kTxnCommit,  ///< read set validated; provisional installs now committed
    kTxnAbort,   ///< validation failed; installs become undo obligations
    kTxnUndo,    ///< one install rolled back: (key, restored version)
  };
  Kind kind;
  PageId page = 0;
  bool write = false;  ///< for kFlushPage: whether the page was dropped
  CoherenceMode mode = CoherenceMode::kMesi;
  Nanos at = 0;
  /// For kPoolRestart: that shard's pool epoch after recovery. For
  /// kSessionBegin: the home shard's epoch the session was admitted under.
  /// 0 elsewhere.
  uint64_t epoch = 0;
  /// Memory shard the event belongs to: the restarting/recovering shard for
  /// kPoolRestart / kPoolRecover / kJournalCommit / kJournalTruncate /
  /// kPushdownAdmit, the session's home shard for kSessionBegin, 0 for the
  /// page-granular kinds (their shard is derivable from `page`).
  int node = 0;
};

std::string_view CoherenceEventKindToString(CoherenceEvent::Kind k);

/// Receives every CoherenceEvent from a MemorySystem it is attached to.
/// tp::ModelChecker implements this to shadow the protocol state machine.
class CoherenceObserver {
 public:
  virtual ~CoherenceObserver() = default;
  virtual void OnCoherenceEvent(const CoherenceEvent& ev) = 0;
};

/// Simulates the memory hierarchy of one deployment: the compute-local page
/// cache, the memory pool with its full page table, and the storage pool,
/// connected by the fabric. Implements the page-fault paths of a
/// disaggregated OS and, during a pushdown session, the two-sided coherence
/// protocol of §4.
///
/// All state transitions charge virtual time to the accessing context and
/// bump its metrics; the backing data itself lives in `space()`.
class MemorySystem {
 public:
  MemorySystem(const DdcConfig& config, const sim::CostParams& params,
               uint64_t address_space_capacity);

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  AddressSpace& space() { return space_; }
  const AddressSpace& space() const { return space_; }
  const DdcConfig& config() const { return config_; }
  const sim::CostParams& params() const { return params_; }
  net::Fabric& fabric() { return fabric_; }

  /// Creates a context placed in `pool`. Memory-pool contexts are only
  /// meaningful on the kBaseDdc platform. `node` is the compute-pool client
  /// the thread runs on (kCompute) or the home shard of the temporary
  /// context (kMemory); `tenant` tags the context for metrics attribution.
  std::unique_ptr<ExecutionContext> CreateContext(Pool pool, NodeId node = 0,
                                                  TenantId tenant = 0) {
    if (pool == Pool::kCompute) {
      TELEPORT_CHECK(node >= 0 && node < config_.compute_nodes)
          << "compute node " << node << " outside the rack's "
          << config_.compute_nodes << " clients";
    }
    return std::make_unique<ExecutionContext>(this, pool, node, tenant);
  }

  // --- Rack topology -------------------------------------------------------

  int compute_nodes() const { return config_.compute_nodes; }
  int memory_shards() const { return static_cast<int>(shards_.size()); }
  /// Contiguous block partitioning (DRackSim-style): pages are assigned to
  /// shards in address order, `pages_per_shard()` pages per shard, so
  /// sequential streams and the prefetcher stay on one shard. With one
  /// shard every page maps to shard 0.
  int ShardOf(PageId p) const {
    return static_cast<int>(
        std::min<uint64_t>(p / pages_per_shard_, shards_.size() - 1));
  }
  uint64_t pages_per_shard() const { return pages_per_shard_; }

  /// Marks all currently allocated pages as resident in their platform's
  /// backing store (memory pool for DDC — spilling past its capacity to
  /// storage — or local DRAM/SSD for monolithic platforms) with a cold
  /// compute cache. Charges no time; used to stage workload data the way
  /// the paper stages database/graph state before measuring queries.
  void SeedData();

  // --- Pushdown session hooks (driven by teleport::PushdownRuntime) -------

  /// Builds the resident-page list sent at the start of pushdown (§4.1),
  /// sorted by page id with write permissions.
  std::vector<PageEntry> ResidentPages() const;

  /// Runs the Fig-8 temporary-context page-table preparation and activates
  /// the coherence protocol in the given mode.
  ///
  /// Sessions are reference-counted: concurrent pushdown requests from the
  /// same process share one temporary context and page table (§3.2); nested
  /// Begin calls must use the same mode and only the first initializes the
  /// table.
  ///
  /// `admit_epoch` is the pool epoch of the session's *home shard* (the
  /// shard its request RPC was admitted by) under lease fencing; the
  /// default sentinel means "that shard's current epoch". The first Begin
  /// of a session reports it (with `home_shard`) on the kSessionBegin event
  /// so the model checker can assert no stale-epoch session ever starts on
  /// any shard.
  static constexpr uint64_t kCurrentEpoch = ~uint64_t{0};
  void BeginPushdownSession(CoherenceMode mode,
                            uint64_t admit_epoch = kCurrentEpoch,
                            int home_shard = 0);

  /// Merges temporary-context dirty bits back into the full page table and
  /// deactivates coherence once the last concurrent session ends. No fabric
  /// traffic (per §4.1). With journaling enabled the final merge is the
  /// acknowledgment point for session writes: every merged dirty page gets
  /// a redo record, charged to `ctx` when one is supplied (the pushdown
  /// runtime passes the memory-side context; tests may pass nullptr, which
  /// appends records without charging virtual time).
  void EndPushdownSession(ExecutionContext* ctx = nullptr);

  bool pushdown_active() const { return pushdown_active_; }
  CoherenceMode coherence_mode() const { return coherence_mode_; }

  /// Backoff a compute-side write fault waits, past the memory side's
  /// in-flight upgrade, when it loses the §4.1 concurrent write-upgrade
  /// tiebreak to the memory pool.
  static constexpr Nanos kTiebreakBackoffNs = 5'000;

  /// The syncmem syscall (§4.2): synchronously flushes dirty compute-cached
  /// pages overlapping [addr, addr+len) back to the memory pool. Pages stay
  /// cached read-only clean. A zero-length range flushes nothing.
  void Syncmem(ExecutionContext& ctx, VAddr addr, uint64_t len);

  /// Flushes every resident compute page to the memory pool as one streamed
  /// transfer; optionally drops the cache. This is the eager-synchronization
  /// strawman of Fig 20 and the "migrate the whole process" baseline of
  /// Fig 6. Returns the number of pages moved.
  uint64_t FlushAllCache(ExecutionContext& ctx, bool drop);

  /// Like FlushAllCache but restricted to pages overlapping
  /// [addr, addr+len): the Fig 6 "per thread" variant that only evicts the
  /// pushed thread's memory. Returns the number of pages moved.
  uint64_t FlushRange(ExecutionContext& ctx, VAddr addr, uint64_t len,
                      bool drop);

  /// Streams `pages` pages from the memory pool into the compute cache
  /// (the post-pushdown refetch of the eager strawman).
  void BulkRefetch(ExecutionContext& ctx, uint64_t pages);

  // --- Introspection (tests, benches) -------------------------------------

  /// Pages cached across every compute node (or one node's with `node`).
  uint64_t cache_pages_used() const {
    uint64_t n = 0;
    for (const ComputeCache& c : caches_) n += c.used();
    return n;
  }
  uint64_t cache_pages_used_on(NodeId node) const {
    return caches_[static_cast<size_t>(node)].used();
  }
  /// Pages resident across every pool shard (or one shard's with `shard`).
  uint64_t memory_pool_pages_used() const {
    uint64_t n = 0;
    for (const PoolShard& sh : shards_) n += sh.used();
    return n;
  }
  uint64_t memory_pool_pages_used_on(int shard) const {
    return shards_[static_cast<size_t>(shard)].used();
  }
  /// Pages with page-table state (grows lazily with the address space).
  uint64_t tracked_pages() const { return pages_.size(); }
  Perm compute_perm(PageId p) const { return PS(p).compute_perm; }
  Perm temp_perm(PageId p) const { return PS(p).temp_perm; }
  /// Whether `p`'s home shard holds it (its list is the only record).
  bool in_memory_pool(PageId p) const {
    return shards_[static_cast<size_t>(ShardOf(p))].Contains(p);
  }
  bool on_storage(PageId p) const { return PS(p).on_storage; }
  bool compute_dirty(PageId p) const { return PS(p).compute_dirty; }

  /// Verifies the Single-Writer-Multiple-Reader invariant for every page
  /// (§4.1 correctness argument). Aborts on violation; returns the number
  /// of pages checked. Only meaningful while a kMesi session is active.
  uint64_t CheckSwmrInvariant() const;

  /// Cross-checks placement against the page table: (a) no shard but a
  /// page's home shard lists it; (b) `compute_perm` is not kNone exactly
  /// when one cache holds the page; (c) each cache's and shard's used()
  /// equals its member count and stays within capacity; (d) CLOCK
  /// reference bits are set only on member pages. Returns "" when
  /// consistent, else the first inconsistency, naming the page and the two
  /// records that disagree. Model-checker invariant #8.
  std::string AuditPlacement() const;

  // --- Protocol checking hooks ---------------------------------------------

  /// Attaches (or detaches, with nullptr) a coherence observer. Non-owning;
  /// at most one observer, which must outlive its attachment. Shoots down
  /// pinned translations: whether a pinned access must emit events is
  /// captured at pin-fill time.
  void set_coherence_observer(CoherenceObserver* o) {
    observer_ = o;
    InvalidateAllPins();
  }
  CoherenceObserver* coherence_observer() const { return observer_; }

  /// Reports an engine-level transactional event (the kTxn* kinds) to the
  /// attached observer. Engines above the memory system (src/oltp) call
  /// this so model-checker invariant #7 can shadow their concurrency
  /// control; `key` is a record key, `version` a record version or commit
  /// sequence number, `session` the reporting session id. Observer-only:
  /// costs no virtual time and never touches page state.
  void NotifyTxnEvent(CoherenceEvent::Kind kind, uint64_t key,
                      uint64_t version, int session, Nanos at) {
    Notify(kind, key, /*write=*/false, at, version, session);
  }

  /// Plants a deliberate protocol bug (tests only). Always shoots down
  /// outstanding translations itself: the mutation governs *future*
  /// transitions, not the act of planting it.
  void set_protocol_mutation(ProtocolMutation m) {
    mutation_ = m;
    InvalidateAllPins();
  }
  ProtocolMutation protocol_mutation() const { return mutation_; }

  // --- Extent fast path -----------------------------------------------------

  /// Observable TLB-shootdown sequence number: advances on every shootdown,
  /// per-page or wholesale. tp::ModelChecker asserts it moved across each
  /// coherence event that requires a shootdown. (Pin validity itself is
  /// checked against the finer-grained mapping/page epochs, so pins on
  /// unrelated pages survive another page's eviction.)
  uint64_t translation_epoch() const { return translation_epoch_; }

  /// Forces every access through the per-element scalar dispatch path:
  /// pins never fill, so Load/Store, cursors and spans all charge exactly
  /// as the pre-extent code did, access by access. The equivalence tests
  /// and CI's scalar re-run of the explore tier use it to check that path
  /// against the pinned one and the goldens. Initialized from the
  /// TELEPORT_SCALAR_DATAPATH environment variable.
  void set_scalar_datapath(bool scalar) {
    scalar_datapath_ = scalar;
    InvalidateAllPins();
  }
  bool scalar_datapath() const { return scalar_datapath_; }

  /// Attaches (or detaches, with nullptr) a structured-event tracer, shared
  /// with the fabric so one trace carries cache/coherence transitions and
  /// per-kind message sends. Non-owning; recording never advances virtual
  /// time, so an attached tracer is invisible to the simulation.
  void set_tracer(sim::Tracer* tracer) {
    tracer_ = tracer;
    fabric_.set_tracer(tracer);
  }
  sim::Tracer* tracer() const { return tracer_; }

  // --- Resilience (§3.2 failure handling) ---------------------------------

  /// Reseeds the deterministic jitter stream used by page-fault retries.
  void set_retry_seed(uint64_t seed) { retry_rng_ = Rng(seed); }

  /// Outcome of applying completed crash-restart windows (see
  /// ApplyPoolRestartsAt). `recovery_ns` is the virtual time the pool spent
  /// replaying the journal; the bookkeeping itself never advances a clock.
  struct RestartOutcome {
    uint64_t lost = 0;       ///< acknowledged writes genuinely unrecoverable
    uint64_t recovered = 0;  ///< pages re-materialized from the journal
    Nanos recovery_ns = 0;   ///< journal-replay time (0 with journaling off)
  };

  /// Applies any memory-node crash-restart windows that have completed by
  /// `now`, shard by shard in ascending order: every pool-resident page of
  /// a restarted shard is dropped, then — with journaling enabled — pages
  /// with live redo records in *that shard's* journal are replayed back
  /// into its DRAM (still dirty w.r.t. storage) and counted as recovered;
  /// only dirty pages *without* a record are counted as lost writes and
  /// reported via metrics. Replay obligations are strictly per shard: a
  /// crash of shard A never discharges (or touches) shard B's journal,
  /// pages, or epoch. Compute-cache pages survive — no compute node
  /// crashed. Every applied window bumps the restarted shard's
  /// `pool_epoch(shard)` so stale-epoch RPCs can be fenced. Does not
  /// advance any clock; the caller decides where `recovery_ns` is spent.
  RestartOutcome ApplyPoolRestartsAt(ExecutionContext& ctx, Nanos now);

  /// Convenience wrapper at ctx.now() that charges the recovery time to
  /// `ctx` and returns only the lost-write count (the pre-journal API).
  uint64_t ApplyPoolRestarts(ExecutionContext& ctx) {
    const RestartOutcome out = ApplyPoolRestartsAt(ctx, ctx.now());
    if (out.recovery_ns > 0) ctx.AdvanceTime(out.recovery_ns);
    return out.lost;
  }

  /// Lease epoch of one memory-pool shard: starts at 1 and advances once
  /// per applied crash-restart window of that shard, journal on or off.
  /// Pushdown RPCs record, per shard, the epoch they were admitted under;
  /// after a recovery a shard fences (rejects) RPCs carrying an older epoch
  /// for it — other shards' admissions are unaffected.
  uint64_t pool_epoch(int shard = 0) const {
    return shards_[static_cast<size_t>(shard)].epoch();
  }

  /// Pool-side exactly-once filter of one shard: records `token` in that
  /// shard's dedup table (which, like the journal, lives in the
  /// restart-surviving pool region) and returns whether this delivery
  /// should execute. A duplicate delivery of an already-executed token
  /// returns false and counts a dedup hit — unless the kReplayDuplicate
  /// mutation is planted, in which case the duplicate "executes" again and
  /// the model checker flags it. Charges no virtual time (the table probe
  /// rides the request's existing handling).
  bool AdmitPushdown(ExecutionContext& ctx, uint64_t token, Nanos at,
                     int shard = 0);

  /// Enables the redo journal. Off by default: the lossy §3.2
  /// crash-restart behavior.
  void set_journal_enabled(bool on) { journal_enabled_ = on; }
  bool journal_enabled() const { return journal_enabled_; }
  const Journal& journal(int shard = 0) const {
    return shards_[static_cast<size_t>(shard)].journal();
  }

  uint64_t lost_pool_writes() const { return lost_pool_writes_; }
  uint64_t recovered_pool_writes() const { return recovered_pool_writes_; }
  /// Crash-restart windows applied, summed across shards.
  int pool_restarts_applied() const {
    int n = 0;
    for (const PoolShard& sh : shards_) n += sh.restarts_applied();
    return n;
  }

 private:
  friend class ExecutionContext;

  /// Protocol state of one page. Which cache or shard holds the page is
  /// placement, recorded only by ComputeCache and PoolShard.
  struct PageState {
    /// §4.1 permission of the compute copy: not kNone exactly while one
    /// compute cache holds the page (CacheMap/CacheUnmap). Exactly one
    /// client may cache a page at a time, so the protocol stays two-sided;
    /// a touch from another client migrates the page (see ComputeTouch).
    Perm compute_perm = Perm::kNone;
    Perm temp_perm = Perm::kNone;
    /// Per-page TLB-shootdown counter (see PagePin::page_epoch). Bumped by
    /// BumpTlbEpoch(page) alongside the observable translation epoch.
    uint32_t tlb_epoch = 0;
    bool compute_dirty = false;
    bool temp_touched = false;
    bool mem_dirty = false;   ///< pool copy dirty w.r.t. storage
    bool on_storage = false;  ///< page has a copy in the storage pool
    /// End of the §4.1 in-flight window of a memory-side upgrade request;
    /// compute-side write faults inside the window lose the tiebreak.
    Nanos mem_upgrade_inflight_until = 0;
  };

  PageState& PS(PageId p);
  const PageState& PS(PageId p) const;

  /// Sizes the page table, every cache and every shard to the address
  /// space. Called where work enters: AccessImpl and the bulk entry points
  /// (SeedData, BeginPushdownSession, Syncmem, FlushRange,
  /// ApplyPoolRestartsAt). Page lookups past those points never grow.
  /// Inline, since every scalar dispatch calls it and it rarely grows
  /// anything; the space's used bytes are page-aligned, so it compares
  /// them with the bytes the tables cover and divides nothing.
  void EnsurePageTables() {
    if (space_.used_bytes() > table_bytes_) GrowPageTables();
  }
  void GrowPageTables();

  /// Charges the DRAM portion of a hit (sequential vs random split).
  void ChargeDram(ExecutionContext& ctx, PageId page, uint64_t len);

  // Fault paths.
  void ComputeTouch(ExecutionContext& ctx, PageId page, uint64_t len,
                    bool write);
  void MemoryTouch(ExecutionContext& ctx, PageId page, uint64_t len,
                   bool write);
  void LocalTouch(ExecutionContext& ctx, PageId page, uint64_t len,
                  bool write);
  void LinuxSsdTouch(ExecutionContext& ctx, PageId page, uint64_t len,
                     bool write);

  /// Brings `page` into the memory pool (recursive fault to storage if
  /// needed). Returns the pool-side cost so callers can fold it into a
  /// fault handler's service time; storage metrics are charged to `ctx`.
  Nanos EnsureInMemoryPoolCost(ExecutionContext& ctx, PageId page);

  /// Maps `page` into `ctx`'s node's cache, first evicting that cache's
  /// victim when it is full; `trace` emits the "Fill" cache instant.
  void CacheInsert(ExecutionContext& ctx, PageId page, Perm perm, bool dirty,
                   bool trace = true);
  /// Evicts `page` from `holder`'s cache: a capacity victim, or a page
  /// another client touched (cross-node migration). A dirty page is
  /// written back to its home shard over the holder's link.
  void EvictCachePage(ExecutionContext& ctx, PageId page, NodeId holder);
  /// The one place a page joins a cache, and the one place it leaves one:
  /// its compute permission becomes `perm`, and kNone again on the way out.
  void CacheMap(NodeId node, PageId page, Perm perm) {
    caches_[static_cast<size_t>(node)].Insert(page);
    pages_[page].compute_perm = perm;
  }
  void CacheUnmap(NodeId node, PageId page) {
    caches_[static_cast<size_t>(node)].Remove(page);
    pages_[page].compute_perm = Perm::kNone;
  }
  /// The compute node whose cache holds `page`; the page must be cached.
  NodeId CacheHolder(PageId page) const;

  PoolShard& ShardFor(PageId p) {
    return shards_[static_cast<size_t>(ShardOf(p))];
  }
  /// Makes `page` resident in its home shard, evicting the shard's LRU
  /// victim to storage (charged to `ctx`) when it is full. Returns whether
  /// the page was already resident.
  bool PoolAdmit(ExecutionContext& ctx, PageId page);
  /// Storage side of a pool eviction: `victim` has left its shard's LRU.
  void EvictPoolPage(ExecutionContext& ctx, PageId victim);
  /// Pool side of a dirty-page writeback from the compute side: admits
  /// `page` (promoting it if already resident only when `promote` is set:
  /// eviction writebacks do, syncmem and flushes do not), marks the pool
  /// copy dirty and acknowledges it into the journal.
  void PoolWriteback(ExecutionContext& ctx, PageId page, bool promote);

  /// The tail of every fabric charge point: advances `ctx` to `done`,
  /// attributes the fabric's queueing counters to it, and counts the
  /// messages and bytes it sent.
  void SettleTransfer(ExecutionContext& ctx, Nanos done, uint64_t messages,
                      uint64_t bytes);
  /// The eager strawman's bulk stream between ctx's node and the shards
  /// (FlushRange writeback, BulkRefetch refill): one gather per shard of
  /// `per_shard[s]` pages plus the per-page sync cost. Returns when it
  /// completes.
  Nanos StreamPages(ExecutionContext& ctx,
                    const std::vector<uint64_t>& per_shard, bool to_memory);

  /// Reports a completed transition to the attached observer, if any.
  void Notify(CoherenceEvent::Kind kind, PageId page, bool write, Nanos at,
              uint64_t epoch = 0, int node = 0) {
    if (observer_ == nullptr) return;
    observer_->OnCoherenceEvent(
        CoherenceEvent{kind, page, write, coherence_mode_, at, epoch, node});
  }

  /// Acknowledgment point of one pool write: with journaling enabled,
  /// appends a redo record for `page`, charges the (group-commit-batched)
  /// append to `ctx` when non-null, and reports kJournalCommit. A no-op
  /// with journaling off, keeping every legacy path byte-identical.
  void JournalCommit(ExecutionContext* ctx, PageId page, Nanos at);
  /// Drops `page`'s redo record once the page reaches the storage pool.
  /// Free (it piggybacks on the eviction's storage write); reports
  /// kJournalTruncate when a record was live.
  void JournalTruncate(PageId page, Nanos at);

  /// Tracer instants for §4.1 protocol transitions and compute-cache
  /// fill/evict/writeback; no-ops without an attached tracer. The pointer
  /// test is inline, so an untraced run makes no call.
  void TraceProtocol(std::string_view name, PageId page, Nanos at) {
    if (tracer_ != nullptr) EmitProtocolInstant(name, page, at);
  }
  void TraceCache(std::string_view name, PageId page, Nanos at) {
    if (tracer_ != nullptr) EmitCacheInstant(name, page, at);
  }
  void EmitProtocolInstant(std::string_view name, PageId page, Nanos at);
  void EmitCacheInstant(std::string_view name, PageId page, Nanos at);

  /// §4.1 coherence: compute side faults during a pushdown session.
  void CoherenceComputeFault(ExecutionContext& ctx, PageId page, bool write);
  /// §4.1 coherence: temporary-context faults during a pushdown session.
  void CoherenceMemoryFault(ExecutionContext& ctx, PageId page, bool write);

  /// TLB shootdown of one page: invalidates every PagePin on `page` (pins
  /// on other pages survive) and advances the observable translation epoch
  /// the model checker watches. Gated on the kSkipTlbShootdown mutation so
  /// the checker's shootdown assertion can be proven able to catch a
  /// protocol that forgets it.
  void BumpTlbEpoch(PageId page) {
    if (mutation_ != ProtocolMutation::kSkipTlbShootdown) {
      ++translation_epoch_;
      ++pages_[page].tlb_epoch;
    }
  }

  /// Wholesale TLB shootdown: invalidates every outstanding PagePin (used
  /// when page state is rewritten in bulk — session begin/end, pool
  /// restart). Gated like BumpTlbEpoch(page).
  void BumpTlbEpochAll() {
    if (mutation_ != ProtocolMutation::kSkipTlbShootdown) {
      ++translation_epoch_;
      ++mapping_epoch_;
    }
  }

  /// Ungated wholesale invalidation for memory-safety and behavior-mode
  /// events (page-table reallocation, staging, observer/mutation/scalar
  /// flips). Not part of the checked shootdown protocol, so the mutation
  /// cannot skip it.
  void InvalidateAllPins() {
    ++translation_epoch_;
    ++mapping_epoch_;
  }

  /// Fills `pin` for `page` iff the page's *current* state makes every
  /// covered access a plain hit chargeable in closed form (see PagePin).
  /// Leaves the pin invalid otherwise. Reads state only — a fill never
  /// advances time, touches metrics, or changes page state.
  void FillPin(ExecutionContext& ctx, PagePin& pin, PageId page);

  DdcConfig config_;
  sim::CostParams params_;
  AddressSpace space_;
  net::Fabric fabric_;

  std::vector<PageState> pages_;
  /// pages_.size() times the page size: the bytes the page tables cover.
  uint64_t table_bytes_ = 0;
  std::vector<ComputeCache> caches_;  ///< one per compute client
  std::vector<PoolShard> shards_;     ///< one per memory shard
  uint64_t pages_per_shard_;          ///< block-partition stride

  bool pushdown_active_ = false;
  int session_refcount_ = 0;
  CoherenceMode coherence_mode_ = CoherenceMode::kMesi;
  CoherenceObserver* observer_ = nullptr;
  ProtocolMutation mutation_ = ProtocolMutation::kNone;
  sim::Tracer* tracer_ = nullptr;

  /// Observable shootdown sequence number: advances on *every* shootdown
  /// (per-page or wholesale, plus the unconditional safety bumps), which is
  /// what model-checker invariant #5 watches. Pins do not validate against
  /// it — they check mapping_epoch_ and their page's own tlb_epoch.
  uint64_t translation_epoch_ = 1;
  /// Wholesale pin-validity fence (PagePin::map_epoch). Starts at 1 so a
  /// default pin (map_epoch 0) can never validate. Bumped by
  /// BumpTlbEpochAll() on bulk protocol transitions and unconditionally on
  /// events that dangle raw pin pointers (page-table growth) or change what
  /// a pinned access must do (observer attach, mutation plant, scalar-knob
  /// flip) — those are memory-safety bumps, not part of the checked
  /// shootdown protocol, so the mutation cannot skip them.
  uint64_t mapping_epoch_ = 1;
  bool scalar_datapath_ = false;

  // Resilience state (inert without a fabric fault injector). Per-shard
  // epochs, journals, and dedup tables live in shards_.
  Rng retry_rng_{0x7e1e904u};
  uint64_t lost_pool_writes_ = 0;
  uint64_t recovered_pool_writes_ = 0;
  /// Redo-journal switch (set_journal_enabled); applies to every shard.
  bool journal_enabled_ = false;
  /// Pages moved out by the last FlushAllCache(drop=true); consumed by
  /// BulkRefetch to restore the cache in the eager strawman.
  std::vector<PageId> flushed_pages_;
};

// --- ExecutionContext members that read MemorySystem state ------------------

inline ExecutionContext::ExecutionContext(MemorySystem* ms, Pool pool,
                                          NodeId node, TenantId tenant)
    : ms_(ms),
      pool_(pool),
      node_(node),
      tenant_(tenant),
      page_shift_(static_cast<uint32_t>(
          std::countr_zero(ms->space().page_size()))) {}

inline void* ExecutionContext::AccessImpl(VAddr addr, uint64_t len,
                                          bool write) {
  // Every access the pins do not serve enters here, so the first access to
  // a page allocated since the last growth sizes the tables for it.
  ms_->EnsurePageTables();
  const uint64_t page_size = ms_->space().page_size();
  PageId page = addr / page_size;
  const PageId last = (addr + len - 1) / page_size;
  uint64_t remaining = len;
  VAddr cursor = addr;
  for (; page <= last; ++page) {
    const uint64_t in_page =
        std::min<uint64_t>(remaining, page_size - (cursor % page_size));
    switch (pool_) {
      case Pool::kCompute:
        switch (ms_->config().platform) {
          case Platform::kLocal:
            ms_->LocalTouch(*this, page, in_page, write);
            break;
          case Platform::kLinuxSsd:
            ms_->LinuxSsdTouch(*this, page, in_page, write);
            break;
          case Platform::kBaseDdc:
            ms_->ComputeTouch(*this, page, in_page, write);
            break;
        }
        break;
      case Pool::kMemory:
        ms_->MemoryTouch(*this, page, in_page, write);
        break;
    }
    cursor += in_page;
    remaining -= in_page;
  }
  if (write) ms_->space().NoteWrite(addr);
  void* p = ms_->space().HostPtr(addr, len);
  if (yield_fn_ != nullptr) yield_fn_(yield_arg_);
  return p;
}

inline void ExecutionContext::ChargeCpu(uint64_t ops) {
  const double ratio = pool_ == Pool::kMemory
                           ? ms_->config().memory_pool_clock_ratio
                           : 1.0;
  clock_.Advance(ms_->params().Cpu(ops, ratio));
  metrics_.cpu_ops += ops;
  if (yield_fn_ != nullptr) yield_fn_(yield_arg_);
}

// --- Extent fast path --------------------------------------------------------

inline bool ExecutionContext::PinnedRunReady(const PagePin& pin, VAddr addr,
                                             uint64_t len, bool write) const {
  // Interval first: a default pin has v_lo > v_hi, so the empty pin fails
  // here before any pointer is examined. The mapping-epoch check guards
  // every raw pointer in the pin (page-table growth bumps it); only then
  // may the page's own shootdown counter be dereferenced.
  return addr >= pin.v_lo && addr + len - 1 <= pin.v_hi &&
         pin.map_epoch == ms_->mapping_epoch_ &&
         (write ? pin.write_ok : pin.read_ok) &&
         *pin.stream_slot == pin.page &&
         *pin.page_epoch_ptr == pin.page_epoch;
}

inline void ExecutionContext::ChargePinnedRun(const PagePin& pin, uint64_t len,
                                              uint64_t n, bool write) {
  // Exactly the hit-side bookkeeping of n scalar Touch calls.
  if (pin.hit_counter != nullptr) *pin.hit_counter += n;
  // Replacement bookkeeping is idempotent across a same-page run.
  if (pin.cache != nullptr) {
    pin.cache->OnHit(pin.page);
  } else if (pin.shard != nullptr) {
    pin.shard->Touch(pin.page);
  }
  if (write) {
    if (pin.dirty_flag != nullptr) *pin.dirty_flag = true;
    if (pin.touched_flag != nullptr) *pin.touched_flag = true;
  }
  // ChargeDram's sequential branch, in closed form.
  const Nanos per =
      pin.seq_ns +
      static_cast<Nanos>(static_cast<double>(len) * pin.ns_per_byte);
  if (!pin.notify) {
    clock_.Advance(per * static_cast<Nanos>(n));
    return;
  }
  // With an observer attached every access reports its own event at its own
  // timestamp, so the event stream stays identical to the scalar path.
  const auto kind = pin.shard != nullptr ? CoherenceEvent::Kind::kMemoryAccess
                                         : CoherenceEvent::Kind::kComputeAccess;
  for (uint64_t i = 0; i < n; ++i) {
    clock_.Advance(per);
    ms_->Notify(kind, pin.page, write, clock_.now());
  }
}

inline void* ExecutionContext::TryPinned(PagePin& pin, VAddr addr,
                                         uint64_t len, bool write) {
  if (!PinnedRunReady(pin, addr, len, write)) {
    // A pin that still covers `addr` but failed validation may be a
    // casualty of a wholesale shootdown (session boundary, restart) or of
    // a transition that left the page pinnable (e.g. its own permission
    // upgrade). Revalidate in place: FillPin re-reads the page's current
    // state under the new epochs, so this is exactly as safe as the first
    // fill, and when the page is still a plain hit it skips the scalar
    // dispatch entirely. A reset pin has v_lo > v_hi and fails the range
    // test, so cold pins still take the cheap early exit. When the page has
    // left the pin's stream slot, a revalidation succeeds only if the page
    // sits in another one; the scalar dispatch charges the same either way,
    // so let it.
    if (addr < pin.v_lo || addr + len - 1 > pin.v_hi) return nullptr;
    if (*pin.stream_slot != pin.page) return nullptr;
    ms_->FillPin(*this, pin, pin.page);
    if (!PinnedRunReady(pin, addr, len, write)) return nullptr;
  }
  ChargePinnedRun(pin, len, 1, write);
  if (yield_fn_ != nullptr) yield_fn_(yield_arg_);
  return pin.host + (addr - pin.v_lo);
}

inline void* ExecutionContext::SlowAccess(VAddr addr, uint64_t len,
                                          bool write) {
  void* p = AccessImpl(addr, len, write);
  // Refill the page's TLB slot only on the second consecutive miss to the
  // same page: two misses declare sequential intent, while random patterns
  // (hash probes) never pay the fill cost.
  const PageId page = (addr + len - 1) >> page_shift_;
  if (page == last_slow_page_) {
    ms_->FillPin(*this, TlbSlot(addr + len - 1), page);
  } else {
    last_slow_page_ = page;
  }
  return p;
}

inline void* ExecutionContext::PinnedSlowAccess(PagePin& pin, VAddr addr,
                                                uint64_t len, bool write) {
  void* p = AccessImpl(addr, len, write);
  ms_->FillPin(*this, pin, (addr + len - 1) >> page_shift_);
  return p;
}

}  // namespace teleport::ddc

#endif  // TELEPORT_DDC_MEMORY_SYSTEM_H_
