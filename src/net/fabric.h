#ifndef TELEPORT_NET_FABRIC_H_
#define TELEPORT_NET_FABRIC_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "sim/cost_model.h"

namespace teleport::sim {
class Tracer;
struct Metrics;
}  // namespace teleport::sim

namespace teleport::net {

/// Kinds of messages exchanged between the compute pool and the memory-pool
/// controller. Mirrors the RPC vocabulary of §3.2 and §4.1.
enum class MessageKind {
  kPushdownRequest,
  kPushdownResponse,
  kPageFaultRequest,   ///< compute -> memory: fetch page / permissions
  kPageFaultReply,     ///< memory -> compute: page data / grant
  kCoherenceRequest,   ///< either direction: invalidate / downgrade
  kCoherenceReply,
  kPageReturn,         ///< dirty page flushed back on request
  kSyncmem,
  kTryCancel,
  kHeartbeat,
};

/// Number of MessageKind values; sizes the per-kind accounting tables.
inline constexpr int kNumMessageKinds = 10;

std::string_view MessageKindToString(MessageKind kind);

/// Pluggable transport cost model of the fabric (PR9).
///
///  - kIdeal: the PR1-8 model — constant latency plus per-link
///    serialization, infinite NIC/controller capacity. Every pre-PR9 golden
///    is locked against this backend, and it stays the default.
///  - kQueuedRdma: contended data plane. Each direction of each link is a
///    FIFO service queue of finite bandwidth, multiplexed over a shared
///    per-compute-node NIC and a shared per-shard controller, with
///    doorbell-batched verb submission. One tenant's burst inflates a
///    neighbor's p99 (they share the NIC/controller servers).
///  - kSmartNic: kQueuedRdma, except coherence directory lookups and small
///    pushdown probes execute on the NIC — they skip the shard controller
///    queue and replace the host handler with the NIC-side handler time.
///
/// All three backends are deterministic: queue state is a pure function of
/// the send sequence (order, times, sizes), so RandomSchedule replays of the
/// same schedule evolve the queues bit-identically.
enum class Backend {
  kIdeal,
  kQueuedRdma,
  kSmartNic,
};

std::string_view BackendToString(Backend backend);

/// Backend selected by the TELEPORT_FABRIC_BACKEND environment variable:
/// exactly "ideal", "queued_rdma" or "smartnic"; kIdeal when unset or
/// empty. Any other value aborts naming the variable and the accepted
/// values. Read once per Fabric construction, mirroring the
/// TELEPORT_SCALAR_DATAPATH knob.
Backend BackendFromEnv();

class FaultInjector;

/// One (compute node, memory node) pair of the rack. The default-constructed
/// link is the degenerate 1x1 topology's single pair, {0, 0}.
struct Link {
  int src = 0;  ///< compute-pool client (blade) index
  int dst = 0;  ///< memory-pool shard (controller) index
};

/// Result of a send that may be lost to fault injection: `delivered` is
/// always true on a fabric without an injector.
struct SendOutcome {
  bool delivered = true;
  Nanos deliver_at = 0;  ///< meaningful only when delivered
  /// Copies that reached the receiver (2 on an injected duplicate). The
  /// reliable paths always report 1: transport-level dedup hides copies the
  /// same way it hides drops. Try* callers see every copy so end-to-end
  /// exactly-once (idempotency tokens + pool-side dedup) can be exercised.
  int copies = 1;
};

/// One direction of one simulated RDMA link. Reliable and FIFO: delivery
/// times are monotone in send order, which §4.1's concurrent-fault argument
/// depends on ("enforced using reliable RDMA connections").
///
/// The committed-transfer timeline (`last_send_` / `last_delivery_`) belongs
/// to exactly one (src, dst) link: a lagging send to shard B must never be
/// serialized behind an unrelated in-flight transfer to shard A. The fabric
/// therefore owns one Channel per direction per link, never one shared
/// channel routing multiple destinations (fabric_rack_test locks this).
/// Under the contended backends the per-link FIFO timeline is NOT the whole
/// story: all links of one compute node additionally share that node's NIC
/// and all links into one shard share its controller, so a send can queue
/// behind traffic of an unrelated link. That shared-server state lives in
/// the Fabric (it spans channels); the Channel still owns the per-link
/// committed timeline and enforces the final FIFO clamp via CommitAt.
class Channel {
 public:
  /// Sends `bytes` at virtual time `now`; returns the delivery time at the
  /// receiver (latency + serialization, no earlier than any previous
  /// delivery on this channel). This is the kIdeal wire model.
  Nanos Send(Nanos now, uint64_t bytes, const sim::CostParams& params);

  /// Commits a transfer whose delivery time a contended backend computed
  /// from queue occupancy: applies the per-channel reliable-FIFO clamp
  /// (delivery never precedes a committed delivery) and updates counters.
  Nanos CommitAt(Nanos now, uint64_t bytes, Nanos delivery);

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  Nanos last_delivery() const { return last_delivery_; }

  void Reset();

 private:
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  Nanos last_send_ = 0;
  Nanos last_delivery_ = 0;
};

/// The rack fabric between N compute-pool clients and M memory-pool shards:
/// one reliable-FIFO channel per direction per (src, dst) link, plus
/// per-memory-node reachability driven by the heartbeat thread (§3.2,
/// failure handling). The default 1x1 construction is the paper's
/// point-to-point topology; every send names its link, `Link{}` on it.
///
/// An optional FaultInjector perturbs traffic deterministically: one-way
/// `Send*` paths stay reliable (a drop is hidden by a transport-level
/// retransmit, delaying delivery), while the `Try*` paths surface drops to
/// the caller so the TELEPORT retry/backoff layer can handle them.
/// Probabilistic faults draw from a per-link, per-direction stream seeded
/// from (seed, src, dst, direction), so perturbing traffic on one link
/// never reshuffles which sends on another link get faulted (PR9 fixed the
/// earlier single global stream); scheduled outages are keyed by the link's
/// memory node.
class Fabric {
 public:
  /// NextReachableAt's answer for a memory node that is down for good
  /// (permanent pool loss — the §3.2 kernel-panic case).
  static constexpr Nanos kNeverHeals = -1;

  explicit Fabric(const sim::CostParams& params, int compute_nodes = 1,
                  int memory_nodes = 1)
      : params_(params),
        compute_nodes_(compute_nodes),
        memory_nodes_(memory_nodes),
        compute_to_memory_(
            static_cast<size_t>(compute_nodes) * memory_nodes),
        memory_to_compute_(
            static_cast<size_t>(compute_nodes) * memory_nodes),
        fail_from_(static_cast<size_t>(memory_nodes), -1),
        backend_(BackendFromEnv()),
        q_c2m_(static_cast<size_t>(compute_nodes) * memory_nodes),
        q_m2c_(static_cast<size_t>(compute_nodes) * memory_nodes),
        nic_busy_(static_cast<size_t>(compute_nodes), 0),
        ctrl_busy_(static_cast<size_t>(memory_nodes), 0) {
    TELEPORT_CHECK(compute_nodes >= 1 && memory_nodes >= 1)
        << "a rack has at least one compute node and one memory shard; got "
        << compute_nodes << "x" << memory_nodes;
  }

  /// Transport cost model; kIdeal unless TELEPORT_FABRIC_BACKEND selected a
  /// contended backend at construction. Switching backends mid-run is legal
  /// only on an idle fabric (committed queue state is per-backend).
  Backend backend() const { return backend_; }
  void set_backend(Backend backend) { backend_ = backend; }

  int compute_nodes() const { return compute_nodes_; }
  int memory_nodes() const { return memory_nodes_; }

  /// Synchronous round trip from the compute side: request of `req_bytes`,
  /// reply of `resp_bytes`, plus remote handler time. Returns the completion
  /// time as observed by the caller who started at `now`.
  Nanos RoundTripFromCompute(
      Link link, Nanos now, uint64_t req_bytes, uint64_t resp_bytes,
      Nanos handler_ns, MessageKind req_kind = MessageKind::kPageFaultRequest,
      MessageKind resp_kind = MessageKind::kPageFaultReply);

  /// Same, initiated from the memory side of `link`.
  Nanos RoundTripFromMemory(
      Link link, Nanos now, uint64_t req_bytes, uint64_t resp_bytes,
      Nanos handler_ns, MessageKind req_kind = MessageKind::kCoherenceRequest,
      MessageKind resp_kind = MessageKind::kCoherenceReply);

  /// One-way message compute -> memory; returns delivery time. Reliable:
  /// injected drops delay delivery (transport retransmit) instead of losing
  /// the message.
  Nanos SendToMemory(Link link, Nanos now, uint64_t bytes,
                     MessageKind kind = MessageKind::kPageReturn) {
    return ReliableDeliver(C2m(link), /*to_memory=*/true, link, now, bytes,
                           kind);
  }

  /// One-way message memory -> compute; returns delivery time.
  Nanos SendToCompute(Link link, Nanos now, uint64_t bytes,
                      MessageKind kind = MessageKind::kPageFaultReply) {
    return ReliableDeliver(M2c(link), /*to_memory=*/false, link, now, bytes,
                           kind);
  }

  /// Fault-visible sends: a drop (probabilistic, or a scheduled outage of
  /// the link's memory node covering `now`) is surfaced to the caller, who
  /// retries through tp::Retry. Without an injector these are exactly the
  /// reliable Send*: same delivery time, trace event and counters, so a
  /// fault-free caller needs no separate path.
  SendOutcome TrySendToMemory(Link link, Nanos now, uint64_t bytes,
                              MessageKind kind) {
    return TryDeliver(C2m(link), /*to_memory=*/true, link, now, bytes, kind);
  }
  SendOutcome TrySendToCompute(Link link, Nanos now, uint64_t bytes,
                               MessageKind kind) {
    return TryDeliver(M2c(link), /*to_memory=*/false, link, now, bytes, kind);
  }

  /// Scatter-gather send: one verb whose gather list covers `segments` byte
  /// counts (the extent/span streaming paths post one WQE per shard instead
  /// of one per page). Counts as ONE message of sum(segments) bytes; under
  /// kIdeal this is exactly SendToMemory of the total, so span-path goldens
  /// are unchanged, while the contended backends ring one doorbell for the
  /// whole list and account the per-segment fan-in.
  Nanos SendGatherToMemory(Link link, Nanos now,
                           const std::vector<uint64_t>& segments,
                           MessageKind kind = MessageKind::kPageReturn);
  Nanos SendGatherToCompute(Link link, Nanos now,
                            const std::vector<uint64_t>& segments,
                            MessageKind kind = MessageKind::kPageFaultReply);

  /// Bulk page transfer between compute node `node` and the shards: shard s
  /// moves `pages_per_shard[s]` pages as one scatter-gather verb posted at
  /// `now`, led by a `header`-byte segment when `header` is nonzero; shards
  /// without pages send nothing. Returns the last delivery (`now` if none).
  /// A `stream` transfer (the eager flush/refetch strawman) is instead the
  /// closed-form estimate under kIdeal, and on any backend when it carries
  /// no pages: latency plus serialization of the payload, with the fabric
  /// untouched, since committed channel residency from a bulk stream would
  /// perturb unrelated lagging sends' FIFO clamps.
  Nanos SendPages(int node, Nanos now,
                  const std::vector<uint64_t>& pages_per_shard,
                  uint64_t header, bool to_memory, MessageKind kind,
                  bool stream);

  /// Fault-visible round trip from the compute side: fails when either the
  /// request or the reply is dropped (the caller cannot distinguish the two
  /// — it just never hears back before its retransmission timeout). On
  /// success the outcome is the reply's: `deliver_at` is the completion
  /// time at the caller. Without an injector this is RoundTripFromCompute.
  SendOutcome TryRoundTripFromCompute(Link link, Nanos now, uint64_t req_bytes,
                                      uint64_t resp_bytes, Nanos handler_ns,
                                      MessageKind req_kind,
                                      MessageKind resp_kind);

  const sim::CostParams& params() const { return params_; }

  /// Failure injection: memory node `memory_node` goes down for good at
  /// `from` on the virtual timeline, the paper's panic case. An outage
  /// that heals belongs to the FaultInjector (AddOutage,
  /// ScheduleCrashRestart).
  void InjectFailureWindowOn(int memory_node, Nanos from) {
    fail_from_[CheckedNode(memory_node)] = from;
  }

  /// Hard (panic-class) unreachability: the node's injected failure has
  /// begun. Ignores injector outages: the §3.2 runtime panics on a hard
  /// failure, while outages are transient (flap / restartable node) and
  /// are handled by the retry layer instead.
  bool HardDownAt(Nanos now, int memory_node = 0) const {
    const Nanos from = fail_from_[CheckedNode(memory_node)];
    return from >= 0 && now >= from;
  }

  /// Earliest virtual time >= `now` at which memory node `memory_node` is
  /// reachable again: `now` itself when currently reachable, the end of the
  /// covering injector outage, or kNeverHeals once the node is hard down.
  /// This is what the §3.2 local-fallback policy consults to distinguish a
  /// restartable pool from a lost one.
  Nanos NextReachableAt(Nanos now, int memory_node = 0) const;

  /// Deterministic fault injection; non-owning, may be nullptr.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Structured-event tracing of every delivered message, labeled by
  /// MessageKind; non-owning, may be nullptr (no events, no cost).
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  sim::Tracer* tracer() const { return tracer_; }

  uint64_t total_messages() const {
    uint64_t n = 0;
    for (const Channel& ch : compute_to_memory_) n += ch.messages_sent();
    for (const Channel& ch : memory_to_compute_) n += ch.messages_sent();
    return n;
  }
  uint64_t total_bytes() const {
    uint64_t n = 0;
    for (const Channel& ch : compute_to_memory_) n += ch.bytes_sent();
    for (const Channel& ch : memory_to_compute_) n += ch.bytes_sent();
    return n;
  }

  /// Per-kind breakdown over both directions of every link (delivered
  /// copies, including duplicates; drops are visible in the injector's
  /// counters instead). Separates coherence vs control traffic for
  /// Fig 22-style benches.
  uint64_t messages_of(MessageKind kind) const {
    return messages_by_kind_[static_cast<size_t>(kind)];
  }
  uint64_t bytes_of(MessageKind kind) const {
    return bytes_by_kind_[static_cast<size_t>(kind)];
  }
  std::string KindBreakdownToString() const;

  // --- Contended-backend observability (all zero under kIdeal) ------------

  /// Committed queue residency ahead of a message entering `link` at `now`,
  /// both directions, including the shared NIC/controller servers. This is
  /// what a congestion-aware heartbeat deadline adds to its budget: the
  /// local NIC can see its own committed backlog, so a saturated-but-
  /// healthy shard is not mistaken for a dead one.
  Nanos QueueBacklogNs(Link link, Nanos now) const;

  /// True when the active backend executes this message NIC-side (skipping
  /// the shard controller queue and the host handler): coherence directory
  /// traffic always, pushdown probes when small enough.
  bool SmartNicOffloaded(MessageKind kind, uint64_t bytes) const {
    if (backend_ != Backend::kSmartNic) return false;
    switch (kind) {
      case MessageKind::kCoherenceRequest:
      case MessageKind::kCoherenceReply:
        return true;
      case MessageKind::kPushdownRequest:
        return bytes <= params_.smartnic_max_bytes;
      default:
        return false;
    }
  }

  /// Per-kind queueing: sends that waited behind committed residency, their
  /// total wait, and the peak occupancy (in-flight transfers) observed.
  uint64_t queued_sends_of(MessageKind kind) const {
    return queued_by_kind_[static_cast<size_t>(kind)];
  }
  Nanos queue_wait_of(MessageKind kind) const {
    return static_cast<Nanos>(queue_wait_by_kind_[static_cast<size_t>(kind)]);
  }
  uint64_t peak_queue_depth_of(MessageKind kind) const {
    return peak_depth_by_kind_[static_cast<size_t>(kind)];
  }
  uint64_t doorbells() const { return doorbells_; }
  uint64_t coalesced_doorbells() const { return coalesced_doorbells_; }
  uint64_t sg_sends() const { return sg_sends_; }
  uint64_t sg_segments() const { return sg_segments_; }
  uint64_t smartnic_offloads() const { return smartnic_offloads_; }

  /// Per-kind queueing breakdown, "fabricq{Kind=n/waitns/peakD ...}" plus
  /// the doorbell / scatter-gather / offload totals. Kinds that never
  /// queued are elided, and an untouched (or kIdeal) fabric prints exactly
  /// "fabricq{}", so pre-PR9 dumps that append this stay byte-identical.
  std::string QueueBreakdownToString() const;

  /// Folds the queue counters accumulated since the last drain into `m`'s
  /// netq_* fields and clears the pending deltas. The fabric has no
  /// ExecutionContext of its own, so the ddc/teleport charge points drain
  /// after each send to attribute queueing to the context that caused it.
  void DrainQueueStats(sim::Metrics& m);

  const Channel& compute_to_memory(Link link = Link{}) const {
    return compute_to_memory_[LinkIndex(link)];
  }
  const Channel& memory_to_compute(Link link = Link{}) const {
    return memory_to_compute_[LinkIndex(link)];
  }

  void Reset();

 private:
  size_t LinkIndex(Link link) const {
    TELEPORT_DCHECK(link.src >= 0 && link.src < compute_nodes_ &&
                    link.dst >= 0 && link.dst < memory_nodes_);
    return static_cast<size_t>(link.src) * memory_nodes_ + link.dst;
  }
  size_t CheckedNode(int memory_node) const {
    TELEPORT_DCHECK(memory_node >= 0 && memory_node < memory_nodes_);
    return static_cast<size_t>(memory_node);
  }
  Channel& C2m(Link link) { return compute_to_memory_[LinkIndex(link)]; }
  Channel& M2c(Link link) { return memory_to_compute_[LinkIndex(link)]; }

  /// One direction of one link's contended-backend queue state. The shared
  /// NIC/controller busy horizons live beside these in the Fabric; together
  /// they are a pure function of the send sequence, which is what keeps
  /// RandomSchedule replays bit-identical.
  struct QueueState {
    Nanos busy_until = 0;      ///< committed wire residency of this queue
    Nanos last_doorbell = -1;  ///< newest verb submission time (-1 = none)
    std::deque<Nanos> inflight;  ///< committed completion times, FIFO
  };
  QueueState& QState(bool to_memory, Link link) {
    return (to_memory ? q_c2m_ : q_m2c_)[LinkIndex(link)];
  }
  const QueueState& QState(bool to_memory, Link link) const {
    return (to_memory ? q_c2m_ : q_m2c_)[LinkIndex(link)];
  }

  /// Dispatches one wire transfer under the active backend: Channel::Send
  /// for kIdeal, the queued service model otherwise (doorbell batching,
  /// shared-server occupancy, per-kind queue accounting, trace span on a
  /// non-zero wait), finishing with the channel's FIFO commit.
  Nanos WireSend(Channel& ch, bool to_memory, Link link, Nanos now,
                 uint64_t bytes, MessageKind kind);

  /// Reliable delivery: accounts the message per kind, applies injector
  /// delay/duplicate events, and hides drops behind transport retransmits.
  /// Outage windows consulted are those of the link's memory node.
  Nanos ReliableDeliver(Channel& ch, bool to_memory, Link link, Nanos now,
                        uint64_t bytes, MessageKind kind);
  /// Fault-visible delivery: drops (and outages of the link's memory node
  /// covering `now`) fail the send and are reported to the caller.
  SendOutcome TryDeliver(Channel& ch, bool to_memory, Link link, Nanos now,
                         uint64_t bytes, MessageKind kind);

  /// Emits a per-kind instant event for a message entering the wire at
  /// `at`; no-op without an attached tracer (tested inline, so an untraced
  /// run makes no call). The {0, 0} link keeps the pre-rack event shape
  /// byte-for-byte; other links add a "link" field.
  void TraceSend(bool to_memory, Link link, MessageKind kind, uint64_t bytes,
                 Nanos at) {
    if (tracer_ != nullptr) EmitSendInstant(to_memory, link, kind, bytes, at);
  }
  void EmitSendInstant(bool to_memory, Link link, MessageKind kind,
                       uint64_t bytes, Nanos at);

  void CountDelivered(MessageKind kind, uint64_t bytes, int copies) {
    messages_by_kind_[static_cast<size_t>(kind)] +=
        static_cast<uint64_t>(copies);
    bytes_by_kind_[static_cast<size_t>(kind)] +=
        bytes * static_cast<uint64_t>(copies);
  }

  sim::CostParams params_;
  int compute_nodes_ = 1;
  int memory_nodes_ = 1;
  std::vector<Channel> compute_to_memory_;  ///< [src * memory_nodes_ + dst]
  std::vector<Channel> memory_to_compute_;  ///< [src * memory_nodes_ + dst]
  /// Per memory node: when it goes down for good, or -1.
  std::vector<Nanos> fail_from_;
  FaultInjector* injector_ = nullptr;
  sim::Tracer* tracer_ = nullptr;
  std::array<uint64_t, kNumMessageKinds> messages_by_kind_{};
  std::array<uint64_t, kNumMessageKinds> bytes_by_kind_{};

  // Contended-backend state (untouched while backend_ == kIdeal).
  Backend backend_ = Backend::kIdeal;
  std::vector<QueueState> q_c2m_;  ///< [src * memory_nodes_ + dst]
  std::vector<QueueState> q_m2c_;  ///< [src * memory_nodes_ + dst]
  std::vector<Nanos> nic_busy_;    ///< per compute node, both directions
  std::vector<Nanos> ctrl_busy_;   ///< per memory shard, both directions
  std::array<uint64_t, kNumMessageKinds> queued_by_kind_{};
  std::array<uint64_t, kNumMessageKinds> queue_wait_by_kind_{};
  std::array<uint64_t, kNumMessageKinds> peak_depth_by_kind_{};
  uint64_t doorbells_ = 0;
  uint64_t coalesced_doorbells_ = 0;
  uint64_t sg_sends_ = 0;
  uint64_t sg_segments_ = 0;
  uint64_t smartnic_offloads_ = 0;
  /// Deltas since the last DrainQueueStats, folded into a context's netq_*
  /// metrics by the charge point that triggered the traffic.
  struct PendingQueueStats {
    uint64_t queued_sends = 0;
    uint64_t queue_wait_ns = 0;
    uint64_t doorbells = 0;
    uint64_t doorbells_coalesced = 0;
    uint64_t sg_segments = 0;
    uint64_t smartnic_offloads = 0;
  } pending_;
};

}  // namespace teleport::net

#endif  // TELEPORT_NET_FABRIC_H_
