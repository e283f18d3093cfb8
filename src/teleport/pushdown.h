#ifndef TELEPORT_TELEPORT_PUSHDOWN_H_
#define TELEPORT_TELEPORT_PUSHDOWN_H_

#include <exception>
#include <optional>
#include <type_traits>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "ddc/memory_system.h"

namespace teleport::tp {

/// Synchronization strategy applied around a pushdown call (§4, Fig 20,
/// Fig 6 ablation).
enum class SyncStrategy : uint8_t {
  /// Default: no pages move up front; the MESI-inspired on-demand protocol
  /// keeps the pools coherent during execution (§4.1).
  kOnDemand,
  /// Strawman: flush the entire compute cache before execution and refetch
  /// it afterwards (Fig 20 "eager sync").
  kEager,
  /// Flush and evict only the pages of a caller-specified range before
  /// execution, with no online coherence (Fig 6 "per thread"). Requires
  /// `sync_addr`/`sync_len` in the flags.
  kEagerRange,
};

std::string_view SyncStrategyToString(SyncStrategy s);

/// §3.2 escape hatch: what the runtime does when a pushdown times out or
/// cannot reach the memory pool while the pool is still restartable.
enum class FallbackPolicy : uint8_t {
  /// Surface TimedOut/Unavailable to the application (default).
  kNone,
  /// Issue try_cancel, then transparently re-run the function locally on the
  /// compute pool via demand paging ("the application is then free to
  /// execute the function locally", §3.2).
  kLocal,
};

std::string_view FallbackPolicyToString(FallbackPolicy f);

/// Wire size of a pushdown request before its resident-page list: a
/// 128-byte header plus fn's serialized argument vector (64 bytes).
inline constexpr uint64_t kPushdownRequestBytes = 192;
/// Wire size of a pushdown response: the header plus fn's return payload.
inline constexpr uint64_t kPushdownResponseBytes = 192;

/// The `flags` argument of the pushdown syscall (§3.1).
struct PushdownFlags {
  SyncStrategy sync = SyncStrategy::kOnDemand;

  /// Coherence protocol variant for the session (§4.2 relaxations).
  ddc::CoherenceMode coherence = ddc::CoherenceMode::kMesi;

  /// 0 = block until completion (default). Otherwise, if the request has
  /// not started executing after `timeout_ns`, a try_cancel is issued; a
  /// successful cancel surfaces Status::TimedOut and leaves the caller free
  /// to run the function locally (§3.2).
  Nanos timeout_ns = 0;

  /// Range for SyncStrategy::kEagerRange.
  ddc::VAddr sync_addr = 0;
  uint64_t sync_len = 0;

  /// Recovery behavior on timeout or an unreachable-but-restartable pool.
  FallbackPolicy fallback = FallbackPolicy::kNone;

  /// Memory shard whose controller receives the request RPC and hosts the
  /// temporary context (the session's *home* shard). Data accesses inside
  /// the pushed function still fault shard-by-shard; the home shard is the
  /// admission point for lease fencing and idempotency dedup. 0 — the only
  /// shard of the paper's 1x1 rack — preserves every legacy call site.
  int home_shard = 0;

  /// Registered kernel this call executes (PushdownRuntime::RegisterKernel),
  /// or -1 for an anonymous pushdown. Purely attributive: traces tag the
  /// call with the kernel name and the runtime keeps per-kernel call
  /// counts; timing and semantics are unchanged.
  int kernel = -1;
};

/// Wall-clock breakdown of one pushdown call, matching the six components
/// of Fig 19 (function execution and online synchronization are split out
/// as in Fig 20).
struct PushdownBreakdown {
  Nanos pre_sync_ns = 0;           ///< (1) pre-pushdown synchronization
  Nanos request_transfer_ns = 0;   ///< (2) request over RDMA
  Nanos queue_wait_ns = 0;         ///<     waiting for a free instance
  Nanos context_setup_ns = 0;      ///< (3) temporary user context setup
  Nanos function_exec_ns = 0;      ///< (4a) user function execution
  Nanos online_sync_ns = 0;        ///< (4b) coherence during execution
  Nanos response_transfer_ns = 0;  ///< (5) response over RDMA
  Nanos post_sync_ns = 0;          ///< (6) post-pushdown synchronization
  /// Virtual time spent in §3.2 recovery: retransmission timeouts, backoff,
  /// outage waits, and local-fallback overhead. Exactly zero in fault-free
  /// runs.
  Nanos retry_ns = 0;

  Nanos Total() const {
    return pre_sync_ns + request_transfer_ns + queue_wait_ns +
           context_setup_ns + function_exec_ns + online_sync_ns +
           response_transfer_ns + post_sync_ns + retry_ns;
  }

  void Add(const PushdownBreakdown& o);
  std::string ToString() const;
};

/// Signature of a pushed-down function: executes inside a memory-pool
/// context with an opaque argument pointer, mirroring the
/// `pushdown(fn, arg, flags)` syscall of §3.1. The argument may contain
/// pointers into the shared virtual address space.
using PushdownFn = Status (*)(ddc::ExecutionContext&, void* arg);

/// One pushdown call between PushdownRuntime::Begin and End: the caller,
/// its flags, the breakdown so far and the context the body runs in. It
/// lives on the caller's frame, its memory-side context included, so a
/// call allocates no context on the heap.
class PushdownSession {
 public:
  PushdownSession(ddc::ExecutionContext& caller,
                  const PushdownFlags& flags = {})
      : caller_(caller),
        flags_(flags),
        mem_ctx_(&caller.memory_system(), ddc::Pool::kMemory,
                 flags.home_shard, caller.tenant()) {}

  /// Where the body runs once Begin succeeds: the home shard's temporary
  /// user context, or the caller itself after a §3.2 local fallback.
  ddc::ExecutionContext& ctx() { return local_ ? caller_ : mem_ctx_; }

 private:
  friend class PushdownRuntime;
  ddc::ExecutionContext& caller_;
  const PushdownFlags flags_;
  ddc::ExecutionContext mem_ctx_;
  PushdownBreakdown bd_;
  net::Link link_;
  Nanos t0_ = 0;          ///< the caller's clock when the call began
  Nanos body_start_ = 0;  ///< ctx()'s clock when the body began
  uint64_t eager_flushed_ = 0;
  Nanos* slot_ = nullptr;  ///< instance to recycle; null when NIC-side
  bool local_ = false;
};

/// The TELEPORT runtime: the user-level analog of the compute- and
/// memory-pool kernel instances of §3.2 and §6.
///
/// One runtime serves one MemorySystem (one process address space). It owns
/// the pool of memory-side instances: concurrent pushdown requests from
/// multiple application threads are queued FIFO and served by
/// `num_instances` temporary user contexts (§3.2 "handling concurrent
/// pushdown requests").
class PushdownRuntime {
 public:
  /// `num_instances` is the number of parallel user contexts in the memory
  /// pool (Fig 17); 1 serializes concurrent requests.
  explicit PushdownRuntime(ddc::MemorySystem* ms, int num_instances = 1);

  PushdownRuntime(const PushdownRuntime&) = delete;
  PushdownRuntime& operator=(const PushdownRuntime&) = delete;

  /// The pushdown syscall: Begin, `fn` on the session's context, End.
  /// Blocks the caller (its virtual clock advances to the completion
  /// time); other simulated threads may run concurrently.
  ///
  /// Returns fn's status on success; TimedOut if a timeout was set and the
  /// request was cancelled before starting; Unavailable if the memory pool
  /// is unreachable (heartbeat failure — the real system panics, §3.2) or
  /// if a pool restart dropped writes the journal never covered; Fenced if
  /// the call's admission epoch went stale across pool recoveries and
  /// re-admission kept failing (journal-on only); Fault if the function
  /// overran the runtime's kill timeout.
  Status Pushdown(ddc::ExecutionContext& caller, PushdownFn fn, void* arg,
                  const PushdownFlags& flags = {});

  /// Pushdown for invocables. C++ exceptions thrown by `fn` in the memory
  /// pool are caught by the stub, transported, and rethrown at the caller
  /// (§3.2 exception handling).
  template <typename F>
  Status Call(ddc::ExecutionContext& caller, F&& fn,
              const PushdownFlags& flags = {}) {
    PushdownSession s(caller, flags);
    Status st = Begin(s);
    if (!st.ok()) return st;
    std::exception_ptr eptr;
    try {
      st = fn(s.ctx());
    } catch (...) {
      eptr = std::current_exception();
      st = Status::Fault("C++ exception escaped pushed function");
    }
    st = End(s, std::move(st));
    if (eptr) std::rethrow_exception(eptr);
    return st;
  }

  /// Stages (1)-(3) of a call: pool restarts, pre-pushdown sync, the
  /// request, the home shard's workqueue, lease fencing, try_cancel,
  /// admission and the temporary context's set-up. On OK the body may run
  /// on `s.ctx()`, blocking or stepped beside other simulated threads, and
  /// End must follow; otherwise the call is over and nothing ran.
  Status Begin(PushdownSession& s);

  /// Stages (4)-(6) once the body returned `body`: the execution's share
  /// of the breakdown, session teardown, the metrics roll-up, the response
  /// and post-pushdown sync (after a local fallback, only the booking);
  /// books the call and returns its status (Fault past the kill timeout).
  Status End(PushdownSession& s, Status body);

  /// Background heartbeat check (§3.2): cheap probe of one memory shard's
  /// controller over the probing node's link (shard 0 — the whole pool on a
  /// 1x1 rack — by default).
  Status CheckHeartbeat(ddc::ExecutionContext& ctx, int shard = 0);

  /// A pushed function whose simulated execution exceeds this bound is
  /// killed (§3.2 "buggy code ... killed by TELEPORT"): 10 virtual minutes.
  static constexpr Nanos kKillTimeoutNs = 600 * kSecond;

  /// Pool-side instances per memory shard.
  int num_instances() const {
    return static_cast<int>(instance_free_.front().size());
  }

  /// Breakdown of the most recent completed call.
  const PushdownBreakdown& last_breakdown() const { return last_breakdown_; }
  /// Distribution of completed calls' end-to-end virtual latencies.
  const Histogram& call_latency() const { return call_latency_; }
  /// Distribution of the online-coherence component per call.
  const Histogram& online_sync_latency() const { return online_sync_latency_; }
  /// Sum of breakdowns across all completed calls.
  const PushdownBreakdown& total_breakdown() const {
    return total_breakdown_;
  }
  uint64_t completed_calls() const { return completed_calls_; }
  uint64_t cancelled_calls() const { return cancelled_calls_; }

  /// Registers a named pushdown kernel and returns its id for
  /// PushdownFlags::kernel. Idempotent per name (re-registering returns the
  /// existing id), so engines can register in their constructors.
  int RegisterKernel(const std::string& name);
  /// Name of a registered kernel id ("" if out of range).
  std::string_view kernel_name(int id) const {
    return id >= 0 && static_cast<size_t>(id) < kernel_names_.size()
               ? std::string_view(kernel_names_[static_cast<size_t>(id)])
               : std::string_view();
  }
  /// Completed (or locally fallen-back) calls attributed to kernel `id`.
  uint64_t kernel_calls(int id) const {
    return id >= 0 && static_cast<size_t>(id) < kernel_calls_.size()
               ? kernel_calls_[static_cast<size_t>(id)]
               : 0;
  }

  /// Reseeds the deterministic jitter stream for the backoff of pushdown
  /// requests, responses, and heartbeats.
  void set_retry_seed(uint64_t seed) { retry_rng_ = Rng(seed); }

  /// RPC attempts this runtime repeated after a drop.
  uint64_t retry_events() const { return retry_events_; }
  /// Pushdowns transparently re-run locally under FallbackPolicy::kLocal.
  uint64_t fallback_calls() const { return fallback_calls_; }
  /// Pushdowns rejected by the pool's lease fence (stale admission epoch)
  /// and re-admitted under the fresh epoch; zero with the journal off.
  uint64_t fenced_rpcs() const { return fenced_rpcs_; }

  /// True once a heartbeat or pushdown has observed the memory pool
  /// unreachable. The real system panics at that point (§3.2: main memory
  /// is lost); here the runtime latches into a failed state and every
  /// subsequent call returns Unavailable immediately.
  bool panicked() const { return panicked_; }
  /// RLE compression ratio of the last resident-page list (§6 reports ~20x).
  double last_page_list_compression() const {
    return last_page_list_compression_;
  }

 private:
  struct Request;  ///< what Begin's stages hand on (pushdown.cc)

  // Begin's stages, in call order. Each that may end the call returns the
  // status Begin returns then (OK once a local fallback has begun), or
  // nullopt to go on.
  void PreSync(PushdownSession& s, Request& req);
  std::optional<Status> SendRequest(PushdownSession& s, Request& req);
  /// The home shard's workqueue and lease fencing.
  std::optional<Status> Enqueue(PushdownSession& s, Request& req);
  std::optional<Status> TryCancel(PushdownSession& s, const Request& req);
  /// Admission, the session's page table and the memory-side context.
  void SetUpContext(PushdownSession& s, const Request& req);

  /// Turns a failed or cancelled pushdown into a run of the body in the
  /// caller's own context (§3.2 local execution); `cancel_sent` says
  /// whether a try_cancel already went out on the wire.
  Status StartLocal(PushdownSession& s, bool cancel_sent);

  /// Adds `n` lost attempts of a retried RPC to retry_events() and the
  /// caller's retries/fault_events metrics.
  void CountRetries(ddc::ExecutionContext& ctx, uint64_t n);

  /// Books a finished call (pushed or locally fallen back): traces it,
  /// records its breakdown and latency, and counts it, overall and per
  /// kernel.
  void FinishCall(const PushdownBreakdown& bd, Nanos t0, bool fallback,
                  int kernel);

  /// Emits the per-call trace spans once a breakdown is final: one
  /// enclosing "call" span plus a child span per non-zero component, laid
  /// out consecutively from t0 and tagged with the call id (and the kernel
  /// name when the call named one), so the child durations of every request
  /// sum exactly to bd.Total() — the caller's observed elapsed time. No-op
  /// without a tracer on the MemorySystem.
  void TraceCall(const PushdownBreakdown& bd, Nanos t0, bool fallback,
                 int kernel);

  ddc::MemorySystem* ms_;
  /// Next-free time of each pool-side instance, per memory shard: shard k
  /// admits pushdowns from its own `num_instances`-deep workqueue, so one
  /// shard's backlog never queues a call homed elsewhere (PR7). One shard
  /// degenerates to the single global workqueue.
  std::vector<std::vector<Nanos>> instance_free_;
  Rng retry_rng_{0x7e1e905u};
  uint64_t retry_events_ = 0;
  uint64_t fallback_calls_ = 0;
  uint64_t next_token_ = 0;  ///< per-call idempotency token source
  uint64_t fenced_rpcs_ = 0;
  PushdownBreakdown last_breakdown_;
  PushdownBreakdown total_breakdown_;
  Histogram call_latency_;
  Histogram online_sync_latency_;
  uint64_t completed_calls_ = 0;
  uint64_t cancelled_calls_ = 0;
  std::vector<std::string> kernel_names_;
  std::vector<uint64_t> kernel_calls_;
  bool panicked_ = false;
  double last_page_list_compression_ = 1.0;
};

/// Analytic makespan model for `n` identical pushdown requests served by
/// `instances` user contexts on `cores` memory-pool cores (Fig 17). Each
/// request consists of `busy_ns` of core time and `stall_ns` of off-core
/// waiting (coherence round trips, storage faults). Context switching adds
/// overhead once instances exceed cores.
Nanos InstancePoolMakespan(int n_requests, Nanos busy_ns, Nanos stall_ns,
                           int instances, int cores,
                           const sim::CostParams& params);

}  // namespace teleport::tp

#endif  // TELEPORT_TELEPORT_PUSHDOWN_H_
