#ifndef TELEPORT_DDC_EXECUTION_CONTEXT_H_
#define TELEPORT_DDC_EXECUTION_CONTEXT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "ddc/types.h"
#include "sim/clock.h"
#include "sim/metrics.h"

// The inline fast path (TryPinned, ChargePinnedRun, the slow-path dispatch)
// reads MemorySystem state, so it is defined in ddc/memory_system.h; include
// that header, not this one.

namespace teleport::ddc {

class ComputeCache;
class MemorySystem;
class PoolShard;

/// One entry of the software TLB used by the extent fast path: a pinned
/// translation of a single page whose state is known to be a plain
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
/// The raw pointers (page state flags, metrics counter, cache or shard)
/// stay valid between wholesale shootdowns because the page table only
/// grows — and growth bumps the mapping epoch before any of them is
/// dereferenced.
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
  bool notify = false;  ///< observer attached at fill time
  bool* dirty_flag = nullptr;    ///< compute_dirty / mem_dirty on write
  bool* touched_flag = nullptr;  ///< temp_touched while a session is active
  uint64_t* hit_counter = nullptr;  ///< cache_hits / memory_pool_hits
  /// Replacement bookkeeping of a hit: the owning node's cache (OnHit) for
  /// a compute-side pin, the home shard (Touch) for a pool-side pin, which
  /// also reports kMemoryAccess instead of kComputeAccess events. Both null
  /// on kLocal, which has no replacement.
  ComputeCache* cache = nullptr;
  PoolShard* shard = nullptr;
  Nanos seq_ns = 0;  ///< per-access sequential base cost
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
                   TenantId tenant = 0);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Direct-mapped slots of the context TLB that serves plain Load, Store,
  /// ReadRange and the spans: page p can only be pinned in slot
  /// p % kTlbSlots, so a lookup needs no search and a refill no victim.
  static constexpr uint64_t kTlbSlots = 8;
  static_assert((kTlbSlots & (kTlbSlots - 1)) == 0, "a power of two");

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
    const void* p = TryPinned(TlbSlot(addr), addr, sizeof(T), /*write=*/false);
    if (p == nullptr) p = SlowAccess(addr, sizeof(T), /*write=*/false);
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }

  /// Writes a POD value at `addr`, charging the access.
  template <typename T>
  void Store(VAddr addr, const T& v) {
    void* p = TryPinned(TlbSlot(addr), addr, sizeof(T), /*write=*/true);
    if (p == nullptr) p = SlowAccess(addr, sizeof(T), /*write=*/true);
    std::memcpy(p, &v, sizeof(T));
  }

  /// Charges a read of [addr, addr+len) and returns a host pointer to it.
  const void* ReadRange(VAddr addr, uint64_t len) {
    const void* p = TryPinned(TlbSlot(addr), addr, len, /*write=*/false);
    return p != nullptr ? p : SlowAccess(addr, len, /*write=*/false);
  }

  // --- Extent (bulk) APIs ---------------------------------------------------
  //
  // Each is defined to perform exactly the element-by-element access
  // sequence of the equivalent Load/Store loop — same touch order, same
  // per-element charges — but runs of same-page hit accesses are charged in
  // closed form through the pinned translation (one multiplication instead
  // of N dispatches). With a yield hook installed (sim::CoopTask) they go
  // element by element, and every element yields once whether a pin or the
  // full dispatch serves it, as a Load/Store loop would. With the
  // TELEPORT_SCALAR_DATAPATH knob set no pin fills, so every element takes
  // the full dispatch; the charges and the yields stay the same.

  /// Reads `count` elements of T starting at `addr` into `dst`.
  template <typename T>
  void LoadSpan(VAddr addr, T* dst, uint64_t count) {
    SpanLoop<T>(addr, count, /*write=*/false,
                [dst](const std::byte* h, uint64_t i, uint64_t n) {
                  std::memcpy(dst + i, h, n * sizeof(T));
                });
  }

  /// Writes `count` elements of T from `src` starting at `addr`.
  template <typename T>
  void StoreSpan(VAddr addr, const T* src, uint64_t count) {
    SpanLoop<T>(addr, count, /*write=*/true,
                [src](std::byte* h, uint64_t i, uint64_t n) {
                  std::memcpy(h, src + i, n * sizeof(T));
                });
  }

  /// Stores `count` copies of `value` starting at `addr`.
  template <typename T>
  void Fill(VAddr addr, const T& value, uint64_t count) {
    SpanLoop<T>(addr, count, /*write=*/true,
                [&value](std::byte* h, uint64_t, uint64_t n) {
                  for (uint64_t j = 0; j < n; ++j) {
                    std::memcpy(h + j * sizeof(T), &value, sizeof(T));
                  }
                });
  }

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
  /// plus the per-hit bookkeeping (metrics, dirty bits, replacement,
  /// events).
  void ChargePinnedRun(const PagePin& pin, uint64_t len, uint64_t n,
                       bool write);
  /// Full dispatch plus opportunistic pin refill for the context TLB: the
  /// page's slot is (re)filled when the same page misses twice in a row, so
  /// random access patterns do not pay the refill cost.
  void* SlowAccess(VAddr addr, uint64_t len, bool write);
  /// Full dispatch plus unconditional refill of `pin` with the page of the
  /// access's last byte (cursors and spans declare sequential intent).
  void* PinnedSlowAccess(PagePin& pin, VAddr addr, uint64_t len, bool write);

  /// The context TLB slot of the page holding `addr`.
  PagePin& TlbSlot(VAddr addr) {
    return tlb_[(addr >> page_shift_) & (kTlbSlots - 1)];
  }

  /// The loop of LoadSpan, StoreSpan and Fill: walks `count` elements of T
  /// from `addr` through the context TLB. A run that stays inside a valid
  /// pin is charged in closed form; any other element takes the scalar
  /// path. `copy(host, i, n)` then moves elements [i, i+n) at `host`.
  template <typename T, typename Copy>
  void SpanLoop(VAddr addr, uint64_t count, bool write, Copy copy) {
    uint64_t i = 0;
    while (i < count) {
      const VAddr a = addr + i * sizeof(T);
      PagePin& pin = TlbSlot(a);
      uint64_t n = 1;
      void* p;
      if (yield_fn_ == nullptr && PinnedRunReady(pin, a, sizeof(T), write)) {
        n = std::min<uint64_t>((pin.v_hi - a + 1) / sizeof(T), count - i);
        ChargePinnedRun(pin, sizeof(T), n, write);
        p = pin.host + (a - pin.v_lo);
      } else {
        p = TryPinned(pin, a, sizeof(T), write);
        if (p == nullptr) {
          p = PinnedSlowAccess(TlbSlot(a + sizeof(T) - 1), a, sizeof(T),
                               write);
        }
      }
      copy(static_cast<std::byte*>(p), i, n);
      i += n;
    }
  }

  MemorySystem* ms_;
  Pool pool_;
  NodeId node_ = 0;
  TenantId tenant_ = 0;
  sim::VirtualClock clock_;
  sim::Metrics metrics_;
  /// log2 of the space's page size (a power of two): addr >> page_shift_
  /// is the page of addr.
  uint32_t page_shift_;
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
  /// The context TLB (see kTlbSlots and TlbSlot). Last, so the members the
  /// scalar dispatch reads stay together.
  PagePin tlb_[kTlbSlots];
};

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

 private:
  ExecutionContext* ctx_;
  PagePin pin_;
};

}  // namespace teleport::ddc

#endif  // TELEPORT_DDC_EXECUTION_CONTEXT_H_
