#ifndef TELEPORT_DDC_MEMORY_SYSTEM_H_
#define TELEPORT_DDC_MEMORY_SYSTEM_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rle.h"
#include "common/rng.h"
#include "common/units.h"
#include "ddc/address_space.h"
#include "ddc/journal.h"
#include "ddc/types.h"
#include "net/fabric.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/metrics.h"

namespace teleport::ddc {

class MemorySystem;
class Cursor;

/// One entry of the miniature software TLB used by the extent fast path: a
/// pinned translation of a single page whose state is known to be a plain
/// cache/pool *hit* for the recorded access modes. While the pin is valid, a
/// same-page access can be charged in closed form (the hit cost of
/// ChargeDram's sequential branch plus the hit-side bookkeeping) without a
/// MemorySystem dispatch.
///
/// Validity is governed by three checks, all performed on every use:
///  - `map_epoch` must equal MemorySystem's wholesale mapping epoch, bumped
///    on bulk state rewrites (session boundaries, pool restarts, staging,
///    page-table growth, mode flips).
///  - `*page_epoch_ptr` must equal `page_epoch`: the pinned page's own
///    shootdown counter, bumped on every per-page transition that could
///    make the pin stale (coherence transitions, evictions, writebacks,
///    flushes, permission changes). Together with the mapping epoch this is
///    the TLB-shootdown invariant asserted by tp::ModelChecker (which
///    watches the combined translation_epoch() sequence number).
///  - `*stream_slot` must still equal `page`: the scalar cost model charges
///    the cheap sequential rate only while the page occupies one of the
///    context's stream trackers, and interleaved random accesses can evict
///    it. A mismatch falls back to the full dispatch, which re-charges
///    exactly what the scalar path would.
///
/// The raw pointers (page state flags, metrics counter, LRU list) stay valid
/// between wholesale shootdowns because the page table only grows — and
/// growth bumps the mapping epoch before any of them is dereferenced.
struct PagePin {
  VAddr v_lo = 1, v_hi = 0;  ///< pinned byte interval; empty = invalid
  /// Snapshot of MemorySystem::mapping_epoch_: dies on wholesale shootdowns
  /// (page-table growth, session begin/end, pool restart, mode flips). It
  /// guards every raw pointer below, so it is checked before any of them.
  uint64_t map_epoch = 0;
  /// Snapshot of the pinned page's own shootdown counter: dies when *this*
  /// page transitions (eviction, fill, permission change, coherence fault)
  /// while pins on unrelated pages survive.
  uint32_t page_epoch = 0;
  const uint32_t* page_epoch_ptr = nullptr;
  std::byte* host = nullptr;  ///< host pointer at v_lo
  PageId page = kNoPage;
  PageId* stream_slot = nullptr;  ///< slot in the owner's streams_[]
  bool read_ok = false;
  bool write_ok = false;
  bool notify = false;     ///< observer attached at fill time
  bool pool_side = false;  ///< kMemoryAccess (vs kComputeAccess) events
  uint8_t lru_kind = 0;    ///< 0 none, 1 list move-to-front, 2 CLOCK ref bit
  bool* dirty_flag = nullptr;    ///< compute_dirty / mem_dirty on write
  bool* touched_flag = nullptr;  ///< temp_touched while a session is active
  bool* ref_bit = nullptr;       ///< CLOCK reference bit (lru_kind == 2)
  uint64_t* hit_counter = nullptr;  ///< cache_hits / memory_pool_hits
  void* lru_list = nullptr;         ///< MemorySystem::LruList*
  Nanos seq_ns = 0;                 ///< per-access sequential base cost
  double ns_per_byte = 0;

  void Reset() { *this = PagePin{}; }
};

/// A simulated thread of execution placed in one resource pool.
///
/// Owns a virtual clock and a metrics sink. All data accesses and CPU work of
/// application code are charged through this object; the actual data lives in
/// the MemorySystem's AddressSpace (real host memory), so application code
/// computes real results while time is simulated.
class ExecutionContext {
 public:
  ExecutionContext(MemorySystem* ms, Pool pool, NodeId node = 0,
                   TenantId tenant = 0)
      : ms_(ms), pool_(pool), node_(node), tenant_(tenant) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  Pool pool() const { return pool_; }
  /// Rack placement: the compute-pool client this thread runs on (kCompute)
  /// or the memory shard hosting the temporary context (kMemory).
  NodeId node() const { return node_; }
  /// Tenant charged for this thread's work (metrics attribution only).
  TenantId tenant() const { return tenant_; }
  MemorySystem& memory_system() { return *ms_; }

  sim::VirtualClock& clock() { return clock_; }
  Nanos now() const { return clock_.now(); }

  sim::Metrics& metrics() { return metrics_; }
  const sim::Metrics& metrics() const { return metrics_; }

  /// Reads a POD value at `addr`, charging the access.
  template <typename T>
  T Load(VAddr addr) {
    const void* p = TryPinned(tlb_, addr, sizeof(T), /*write=*/false);
    if (p == nullptr) p = SlowAccess(addr, sizeof(T), /*write=*/false);
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }

  /// Writes a POD value at `addr`, charging the access.
  template <typename T>
  void Store(VAddr addr, const T& v) {
    void* p = TryPinned(tlb_, addr, sizeof(T), /*write=*/true);
    if (p == nullptr) p = SlowAccess(addr, sizeof(T), /*write=*/true);
    std::memcpy(p, &v, sizeof(T));
  }

  /// Charges a read of [addr, addr+len) and returns a host pointer to it.
  const void* ReadRange(VAddr addr, uint64_t len) {
    const void* p = TryPinned(tlb_, addr, len, /*write=*/false);
    return p != nullptr ? p : SlowAccess(addr, len, /*write=*/false);
  }

  /// Charges a write of [addr, addr+len) and returns a host pointer to it.
  void* WriteRange(VAddr addr, uint64_t len) {
    void* p = TryPinned(tlb_, addr, len, /*write=*/true);
    return p != nullptr ? p : SlowAccess(addr, len, /*write=*/true);
  }

  // --- Extent (bulk) APIs ---------------------------------------------------
  //
  // Each is defined to perform exactly the element-by-element access
  // sequence of the equivalent Load/Store loop — same touch order, same
  // per-element charges — but runs of same-page hit accesses are charged in
  // closed form through the pinned translation (one multiplication instead
  // of N dispatches). With a yield hook installed (sim::CoopTask) or the
  // TELEPORT_SCALAR_DATAPATH knob set, they degrade to the per-element
  // scalar path so schedule-exploration granularity is preserved.

  /// Reads `count` elements of T starting at `addr` into `dst`.
  template <typename T>
  void LoadSpan(VAddr addr, T* dst, uint64_t count);

  /// Writes `count` elements of T from `src` starting at `addr`.
  template <typename T>
  void StoreSpan(VAddr addr, const T* src, uint64_t count);

  /// Stores `count` copies of `value` starting at `addr`.
  template <typename T>
  void Fill(VAddr addr, const T& value, uint64_t count);

  /// Copies `count` elements of T from `src_addr` to `dst_addr`, charging
  /// the alternating load/store sequence of the scalar loop.
  template <typename T>
  void Memcpy(VAddr dst_addr, VAddr src_addr, uint64_t count);

  /// Charges `ops` simple CPU operations at this pool's clock speed.
  void ChargeCpu(uint64_t ops);

  /// Advances this context's clock without touching memory (think of it as
  /// a stall or sleep).
  void AdvanceTime(Nanos delta) { clock_.Advance(delta); }

  /// Time spent in coherence traffic (online synchronization) so far;
  /// used for the Fig 19/20 pushdown breakdown.
  Nanos coherence_ns() const { return coherence_ns_; }

  /// Cooperative-scheduling hook, fired after every charged access and CPU
  /// batch. sim::CoopTask uses it to preempt straight-line engine code at
  /// its instrumentation points; null (the default) costs one branch.
  using YieldFn = void (*)(void*);
  void set_yield_hook(YieldFn fn, void* arg) {
    yield_fn_ = fn;
    yield_arg_ = arg;
  }
  /// The installed hook, so a borrowed execution context (a pushdown
  /// kernel running on the caller's behalf) can inherit the caller's
  /// preemption points. Without the handoff a memory-side spin loop —
  /// e.g. a pushed B+-tree probe retrying a node seqlock — can never
  /// yield back to the suspended compute-side writer it is waiting on,
  /// livelocking the cooperative schedule.
  YieldFn yield_fn() const { return yield_fn_; }
  void* yield_arg() const { return yield_arg_; }

 private:
  friend class MemorySystem;
  friend class Cursor;

  void* AccessImpl(VAddr addr, uint64_t len, bool write);

  /// Fast path: serves [addr, addr+len) from a valid pin, charging the hit
  /// cost, or returns nullptr when the pin does not cover the access.
  void* TryPinned(PagePin& pin, VAddr addr, uint64_t len, bool write);
  /// True when a pinned *run* may start at `addr` (same checks as TryPinned
  /// but without charging; used by the span batchers).
  bool PinnedRunReady(const PagePin& pin, VAddr addr, uint64_t len,
                      bool write) const;
  /// Charges `n` identical same-page hit accesses of `len` bytes against a
  /// valid pin: the closed-form equivalent of n ChargeDram sequential hits
  /// plus the per-hit bookkeeping (metrics, dirty bits, LRU, events).
  void ChargePinnedRun(const PagePin& pin, uint64_t len, uint64_t n,
                       bool write);
  /// Full dispatch plus opportunistic pin refill for the context TLB: the
  /// pin is (re)filled when the same page misses twice in a row, so random
  /// access patterns do not pay the refill cost.
  void* SlowAccess(VAddr addr, uint64_t len, bool write);
  /// Full dispatch plus unconditional pin refill (cursors and spans declare
  /// sequential intent).
  void* PinnedSlowAccess(PagePin& pin, VAddr addr, uint64_t len, bool write);

  MemorySystem* ms_;
  Pool pool_;
  NodeId node_ = 0;
  TenantId tenant_ = 0;
  sim::VirtualClock clock_;
  sim::Metrics metrics_;
  /// The context's one-entry translation cache (see PagePin).
  PagePin tlb_;
  PageId last_slow_page_ = kNoPage;
  /// Recently touched pages, one per hardware-tracked stream: an access to
  /// a tracked page (or its successor) is stream-like and cheap, anything
  /// else pays the DRAM row-miss cost. Modeling several streams matters
  /// because columnar operators interleave a handful of sequential arrays
  /// (input column, candidate list, output), which real prefetchers and
  /// TLBs handle concurrently.
  static constexpr int kStreams = 8;
  PageId streams_[kStreams] = {kNoPage, kNoPage, kNoPage, kNoPage,
                               kNoPage, kNoPage, kNoPage, kNoPage};
  int stream_clock_ = 0;
  /// Previously faulted page (per backend), for SSD readahead modeling.
  PageId last_fault_page_ = kNoPage;
  Nanos coherence_ns_ = 0;
  YieldFn yield_fn_ = nullptr;
  void* yield_arg_ = nullptr;
};

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
  /// the coherence protocol in the given mode. Returns the number of PTEs
  /// processed (the size of the cloned full page table).
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
  uint64_t BeginPushdownSession(CoherenceMode mode,
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

  /// The syncmem syscall (§4.2): synchronously flushes dirty compute-cached
  /// pages overlapping [addr, addr+len) back to the memory pool. Pages stay
  /// cached read-only clean.
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
    for (const ComputeNodeState& c : cnodes_) n += c.cache_used;
    return n;
  }
  uint64_t cache_pages_used_on(NodeId node) const {
    return cnodes_[static_cast<size_t>(node)].cache_used;
  }
  uint64_t cache_capacity_pages() const { return cache_capacity_pages_; }
  /// Pages resident across every pool shard (or one shard's with `shard`).
  uint64_t memory_pool_pages_used() const {
    uint64_t n = 0;
    for (const ShardState& sh : shards_) n += sh.pool_used;
    return n;
  }
  uint64_t memory_pool_pages_used_on(int shard) const {
    return shards_[static_cast<size_t>(shard)].pool_used;
  }
  /// Compute node caching `p`; meaningful only while compute_perm != kNone.
  NodeId cache_owner(PageId p) const { return PS(p).owner; }
  /// Pages with page-table state (grows lazily with the address space).
  uint64_t tracked_pages() const { return pages_.size(); }
  Perm compute_perm(PageId p) const { return PS(p).compute_perm; }
  Perm temp_perm(PageId p) const { return PS(p).temp_perm; }
  bool in_memory_pool(PageId p) const { return PS(p).in_memory_pool; }
  bool on_storage(PageId p) const { return PS(p).on_storage; }
  bool compute_dirty(PageId p) const { return PS(p).compute_dirty; }

  /// Verifies the Single-Writer-Multiple-Reader invariant for every page
  /// (§4.1 correctness argument). Aborts on violation; returns the number
  /// of pages checked. Only meaningful while a kMesi session is active.
  uint64_t CheckSwmrInvariant() const;

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
  /// as the pre-extent code did, access by access. Used by the explore
  /// tier (per-access yield granularity) and the equivalence tests.
  /// Initialized from the TELEPORT_SCALAR_DATAPATH environment variable.
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
    return shards_[static_cast<size_t>(shard)].pool_epoch;
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

  /// Enables the redo journal (also settable via the TELEPORT_JOURNAL
  /// environment variable). Off by default: today's lossy §3.2 behavior.
  void set_journal_enabled(bool on) { journal_enabled_ = on; }
  bool journal_enabled() const { return journal_enabled_; }
  const Journal& journal(int shard = 0) const {
    return shards_[static_cast<size_t>(shard)].journal;
  }

  uint64_t lost_pool_writes() const { return lost_pool_writes_; }
  uint64_t recovered_pool_writes() const { return recovered_pool_writes_; }
  /// Crash-restart windows applied, summed across shards.
  int pool_restarts_applied() const {
    int n = 0;
    for (const ShardState& sh : shards_) n += sh.pool_restarts_applied;
    return n;
  }

 private:
  friend class ExecutionContext;

  static constexpr uint32_t kNil = 0xffffffffu;

  struct PageState {
    Perm compute_perm = Perm::kNone;
    Perm temp_perm = Perm::kNone;
    /// Per-page TLB-shootdown counter (see PagePin::page_epoch). Bumped by
    /// BumpTlbEpoch(page) alongside the observable translation epoch.
    uint32_t tlb_epoch = 0;
    bool compute_dirty = false;
    bool temp_touched = false;
    bool in_memory_pool = false;
    bool mem_dirty = false;   ///< pool copy dirty w.r.t. storage
    bool on_storage = false;  ///< page has a copy in the storage pool
    bool ref_bit = false;     ///< CLOCK second-chance reference bit
    /// Compute node whose cache maps the page (meaningful only while
    /// compute_perm != kNone). Exactly one client may cache a page at a
    /// time — the two-sided §4.1 protocol stays two-sided; a touch from
    /// another client migrates the page (see ComputeTouch).
    uint8_t owner = 0;
    /// End of the §4.1 in-flight window of a memory-side upgrade request;
    /// compute-side write faults inside the window lose the tiebreak.
    Nanos mem_upgrade_inflight_until = 0;
  };

  /// Intrusive-by-index LRU list over page ids. List surgery is inline:
  /// it sits on the hit path of every charged access (directly or via the
  /// pinned fast path's move-to-front-if-needed).
  class LruList {
   public:
    void EnsureSize(size_t n);
    bool Contains(PageId p) const {
      return p < in_list_.size() && in_list_[p] != 0;
    }
    void PushFront(PageId p) {
      EnsureSize(p + 1);
      TELEPORT_DCHECK(!Contains(p));
      prev_[p] = kNil;
      next_[p] = head_;
      if (head_ != kNil) prev_[head_] = static_cast<uint32_t>(p);
      head_ = static_cast<uint32_t>(p);
      if (tail_ == kNil) tail_ = static_cast<uint32_t>(p);
      in_list_[p] = 1;
      ++size_;
    }
    void Remove(PageId p) {
      TELEPORT_DCHECK(Contains(p));
      const uint32_t pr = prev_[p];
      const uint32_t nx = next_[p];
      if (pr != kNil) next_[pr] = nx; else head_ = nx;
      if (nx != kNil) prev_[nx] = pr; else tail_ = pr;
      prev_[p] = next_[p] = kNil;
      in_list_[p] = 0;
      --size_;
    }
    void MoveToFront(PageId p) {
      Remove(p);
      PushFront(p);
    }
    /// Most-recently-used element; kNil if empty. The pinned fast path
    /// skips MoveToFront when the page is already at the front, which
    /// preserves the exact recency order at a fraction of the cost.
    PageId Front() const { return head_; }
    /// Least-recently-used element; kNil if empty.
    PageId Back() const { return tail_; }
    size_t size() const { return size_; }
    /// Empties the list in O(capacity) (crash-restart wipes a whole pool).
    void Clear();

   private:
    std::vector<uint32_t> prev_, next_;
    /// Membership bitmap. uint8_t, not vector<bool>: Contains() is on the
    /// access hot path and the proxy-reference bit arithmetic costs more
    /// than the 8x space.
    std::vector<uint8_t> in_list_;
    uint32_t head_ = kNil, tail_ = kNil;
    size_t size_ = 0;
  };

  PageState& PS(PageId p);
  const PageState& PS(PageId p) const;

  void EnsurePageTables();

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

  /// Inserts a page into `ctx`'s node's compute cache, evicting if full.
  void CacheInsert(ExecutionContext& ctx, PageId page, Perm perm, bool dirty);
  /// Applies the configured replacement policy's hit bookkeeping (on the
  /// owning node's cache).
  void TouchCachePage(PageId page);
  void EvictOneCachePage(ExecutionContext& ctx);
  /// Evicts a specific page from its owner's cache (cross-node migration:
  /// another client touched a page this one caches). Same charges and
  /// events as a capacity eviction of that page.
  void EvictSpecificCachePage(ExecutionContext& ctx, PageId page);
  void EvictOnePoolPage(ExecutionContext& ctx, int shard);

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
  /// fill/evict/writeback; no-ops without an attached tracer.
  void TraceProtocol(std::string_view name, PageId page, Nanos at);
  void TraceCache(std::string_view name, PageId page, Nanos at);

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

  /// One compute-pool client's cache state. Every client has its own DRAM
  /// of `compute_cache_bytes` and its own replacement order.
  struct ComputeNodeState {
    LruList cache_lru;
    uint64_t cache_used = 0;
  };

  /// One memory-pool shard: a contiguous slice of the page table (see
  /// ShardOf) with independent capacity, replacement order, redo journal,
  /// exactly-once dedup table, and lease epoch. The journal and dedup
  /// table model the battery-backed region that survives a crash-restart,
  /// so ApplyPoolRestartsAt never wipes them.
  struct ShardState {
    LruList pool_lru;
    uint64_t pool_used = 0;
    int pool_restarts_applied = 0;
    /// Lease epoch; bumped once per applied crash-restart window of THIS
    /// shard only.
    uint64_t pool_epoch = 1;
    Journal journal;
    /// Idempotency tokens already executed by this shard.
    std::vector<uint8_t> executed_tokens;
  };

  DdcConfig config_;
  sim::CostParams params_;
  AddressSpace space_;
  net::Fabric fabric_;

  std::vector<PageState> pages_;
  std::vector<ComputeNodeState> cnodes_;  ///< one per compute client
  std::vector<ShardState> shards_;        ///< one per memory shard
  uint64_t pages_per_shard_;              ///< block-partition stride
  uint64_t cache_capacity_pages_;         ///< per compute node
  uint64_t pool_capacity_pages_;          ///< per shard

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
  /// Redo-journal enable knob (TELEPORT_JOURNAL); applies to every shard.
  bool journal_enabled_ = false;
  /// Pages moved out by the last FlushAllCache(drop=true); consumed by
  /// BulkRefetch to restore the cache in the eager strawman.
  std::vector<PageId> flushed_pages_;
};

inline void* ExecutionContext::AccessImpl(VAddr addr, uint64_t len,
                                          bool write) {
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
  if (pin.lru_kind == 1) {
    auto* lru = static_cast<MemorySystem::LruList*>(pin.lru_list);
    // MoveToFront of the front element is a structural no-op; skipping it
    // preserves the exact recency order.
    if (lru->Front() != pin.page) lru->MoveToFront(pin.page);
  } else if (pin.lru_kind == 2) {
    *pin.ref_bit = true;  // CLOCK: idempotent
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
  const auto kind = pin.pool_side ? CoherenceEvent::Kind::kMemoryAccess
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
    // test, so cold pins still take the cheap early exit.
    if (addr < pin.v_lo || addr + len - 1 > pin.v_hi) return nullptr;
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
  // Refill the context TLB only on the second consecutive miss to the same
  // page: two misses declare sequential intent, while random patterns (hash
  // probes) never pay the fill cost.
  const PageId page = (addr + len - 1) / ms_->space().page_size();
  if (page == last_slow_page_) {
    ms_->FillPin(*this, tlb_, page);
  } else {
    last_slow_page_ = page;
  }
  return p;
}

inline void* ExecutionContext::PinnedSlowAccess(PagePin& pin, VAddr addr,
                                                uint64_t len, bool write) {
  void* p = AccessImpl(addr, len, write);
  ms_->FillPin(*this, pin, (addr + len - 1) / ms_->space().page_size());
  return p;
}

template <typename T>
void ExecutionContext::LoadSpan(VAddr addr, T* dst, uint64_t count) {
  uint64_t i = 0;
  while (i < count) {
    const VAddr a = addr + i * sizeof(T);
    if (yield_fn_ == nullptr && PinnedRunReady(tlb_, a, sizeof(T), false)) {
      uint64_t n = (tlb_.v_hi - a + 1) / sizeof(T);  // run staying in the pin
      n = std::min(n, count - i);
      ChargePinnedRun(tlb_, sizeof(T), n, false);
      std::memcpy(dst + i, tlb_.host + (a - tlb_.v_lo), n * sizeof(T));
      i += n;
      continue;
    }
    const void* p = TryPinned(tlb_, a, sizeof(T), false);
    if (p == nullptr) p = PinnedSlowAccess(tlb_, a, sizeof(T), false);
    std::memcpy(dst + i, p, sizeof(T));
    ++i;
  }
}

template <typename T>
void ExecutionContext::StoreSpan(VAddr addr, const T* src, uint64_t count) {
  uint64_t i = 0;
  while (i < count) {
    const VAddr a = addr + i * sizeof(T);
    if (yield_fn_ == nullptr && PinnedRunReady(tlb_, a, sizeof(T), true)) {
      uint64_t n = (tlb_.v_hi - a + 1) / sizeof(T);
      n = std::min(n, count - i);
      ChargePinnedRun(tlb_, sizeof(T), n, true);
      std::memcpy(tlb_.host + (a - tlb_.v_lo), src + i, n * sizeof(T));
      i += n;
      continue;
    }
    void* p = TryPinned(tlb_, a, sizeof(T), true);
    if (p == nullptr) p = PinnedSlowAccess(tlb_, a, sizeof(T), true);
    std::memcpy(p, src + i, sizeof(T));
    ++i;
  }
}

template <typename T>
void ExecutionContext::Fill(VAddr addr, const T& value, uint64_t count) {
  uint64_t i = 0;
  while (i < count) {
    const VAddr a = addr + i * sizeof(T);
    if (yield_fn_ == nullptr && PinnedRunReady(tlb_, a, sizeof(T), true)) {
      uint64_t n = (tlb_.v_hi - a + 1) / sizeof(T);
      n = std::min(n, count - i);
      ChargePinnedRun(tlb_, sizeof(T), n, true);
      std::byte* h = tlb_.host + (a - tlb_.v_lo);
      for (uint64_t j = 0; j < n; ++j) {
        std::memcpy(h + j * sizeof(T), &value, sizeof(T));
      }
      i += n;
      continue;
    }
    void* p = TryPinned(tlb_, a, sizeof(T), true);
    if (p == nullptr) p = PinnedSlowAccess(tlb_, a, sizeof(T), true);
    std::memcpy(p, &value, sizeof(T));
    ++i;
  }
}

template <typename T>
void ExecutionContext::Memcpy(VAddr dst_addr, VAddr src_addr, uint64_t count) {
  // Element sequence of the scalar loop: load src[i], then store dst[i].
  // The source gets a local pin so the context TLB keeps covering the
  // destination page across calls.
  PagePin src_pin;
  uint64_t i = 0;
  while (i < count) {
    const VAddr sa = src_addr + i * sizeof(T);
    const VAddr da = dst_addr + i * sizeof(T);
    if (yield_fn_ == nullptr && PinnedRunReady(src_pin, sa, sizeof(T), false) &&
        PinnedRunReady(tlb_, da, sizeof(T), true)) {
      uint64_t n = std::min((src_pin.v_hi - sa + 1) / sizeof(T),
                            (tlb_.v_hi - da + 1) / sizeof(T));
      n = std::min(n, count - i);
      if (src_pin.notify || tlb_.notify) {
        // Preserve the exact load/store event interleaving for observers.
        for (uint64_t j = 0; j < n; ++j) {
          ChargePinnedRun(src_pin, sizeof(T), 1, false);
          ChargePinnedRun(tlb_, sizeof(T), 1, true);
        }
      } else {
        // Grouped charging: all Advances are constants, so the clock and
        // every counter land exactly where the alternating loop puts them.
        ChargePinnedRun(src_pin, sizeof(T), n, false);
        ChargePinnedRun(tlb_, sizeof(T), n, true);
      }
      std::memmove(tlb_.host + (da - tlb_.v_lo),
                   src_pin.host + (sa - src_pin.v_lo), n * sizeof(T));
      i += n;
      continue;
    }
    T v;
    const void* sp = TryPinned(src_pin, sa, sizeof(T), false);
    if (sp == nullptr) sp = PinnedSlowAccess(src_pin, sa, sizeof(T), false);
    std::memcpy(&v, sp, sizeof(T));
    void* dp = TryPinned(tlb_, da, sizeof(T), true);
    if (dp == nullptr) dp = PinnedSlowAccess(tlb_, da, sizeof(T), true);
    std::memcpy(dp, &v, sizeof(T));
    ++i;
  }
}

/// Sequential accessor carrying its own translation pin. Engine inner loops
/// hold one Cursor per array they walk, so each stream keeps its page pinned
/// independently of the others (mirroring the kStreams DRAM model): a miss
/// refills the pin unconditionally — constructing a Cursor *declares*
/// sequential intent, unlike the plain Load/Store TLB which waits for two
/// consecutive same-page misses. Charges and access order are identical to
/// issuing the same Load/Store sequence on the context directly.
class Cursor {
 public:
  explicit Cursor(ExecutionContext& ctx) : ctx_(&ctx) {}

  template <typename T>
  T Load(VAddr addr) {
    const void* p = ctx_->TryPinned(pin_, addr, sizeof(T), /*write=*/false);
    if (p == nullptr) {
      p = ctx_->PinnedSlowAccess(pin_, addr, sizeof(T), /*write=*/false);
    }
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }

  template <typename T>
  void Store(VAddr addr, const T& v) {
    void* p = ctx_->TryPinned(pin_, addr, sizeof(T), /*write=*/true);
    if (p == nullptr) {
      p = ctx_->PinnedSlowAccess(pin_, addr, sizeof(T), /*write=*/true);
    }
    std::memcpy(p, &v, sizeof(T));
  }

  const void* ReadRange(VAddr addr, uint64_t len) {
    const void* p = ctx_->TryPinned(pin_, addr, len, /*write=*/false);
    return p != nullptr ? p
                        : ctx_->PinnedSlowAccess(pin_, addr, len, false);
  }

  void* WriteRange(VAddr addr, uint64_t len) {
    void* p = ctx_->TryPinned(pin_, addr, len, /*write=*/true);
    return p != nullptr ? p : ctx_->PinnedSlowAccess(pin_, addr, len, true);
  }

 private:
  ExecutionContext* ctx_;
  PagePin pin_;
};

}  // namespace teleport::ddc

#endif  // TELEPORT_DDC_MEMORY_SYSTEM_H_
