#include "net/fabric.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>

#include "net/faults.h"
#include "sim/metrics.h"
#include "sim/tracer.h"

namespace teleport::net {

std::string_view BackendToString(Backend backend) {
  switch (backend) {
    case Backend::kIdeal:
      return "ideal";
    case Backend::kQueuedRdma:
      return "queued_rdma";
    case Backend::kSmartNic:
      return "smartnic";
  }
  return "unknown";
}

Backend BackendFromEnv() {
  const char* v = std::getenv("TELEPORT_FABRIC_BACKEND");
  if (v == nullptr || v[0] == '\0') return Backend::kIdeal;
  for (const Backend b :
       {Backend::kIdeal, Backend::kQueuedRdma, Backend::kSmartNic}) {
    if (BackendToString(b) == v) return b;
  }
  TELEPORT_CHECK(false) << "TELEPORT_FABRIC_BACKEND=\"" << v
                        << "\": expected ideal, queued_rdma or smartnic";
  return Backend::kIdeal;
}

std::string_view MessageKindToString(MessageKind kind) {
  switch (kind) {
    case MessageKind::kPushdownRequest:
      return "PushdownRequest";
    case MessageKind::kPushdownResponse:
      return "PushdownResponse";
    case MessageKind::kPageFaultRequest:
      return "PageFaultRequest";
    case MessageKind::kPageFaultReply:
      return "PageFaultReply";
    case MessageKind::kCoherenceRequest:
      return "CoherenceRequest";
    case MessageKind::kCoherenceReply:
      return "CoherenceReply";
    case MessageKind::kPageReturn:
      return "PageReturn";
    case MessageKind::kSyncmem:
      return "Syncmem";
    case MessageKind::kTryCancel:
      return "TryCancel";
    case MessageKind::kHeartbeat:
      return "Heartbeat";
  }
  return "Unknown";
}

Nanos Channel::Send(Nanos now, uint64_t bytes, const sim::CostParams& params) {
  Nanos delivery = now + params.NetTransfer(bytes);
  // Reliable FIFO on the virtual timeline: a message never overtakes one
  // already in flight. Sends reach the channel in host-call order, not
  // virtual-time order (cooperative tasks run with unsynchronized clocks),
  // so three cases arise:
  //  - now >= last_send_: this message is logically newest; it queues
  //    behind everything committed (clamp to last_delivery_).
  //  - now < last_send_ but the transfer would still be on the wire at
  //    last_send_ (delivery >= last_send_): it overlaps a committed
  //    transfer. The committed delivery was already returned to its
  //    caller and cannot be retroactively delayed, so the serial wire
  //    queues this one behind it instead. The seed exempted every
  //    out-of-order-time send from the clamp, which let an overlapping
  //    message be delivered before one already in flight
  //    (fabric_test's regression demonstrates the reordering).
  //  - delivery < last_send_: the transfer provably completed before the
  //    newest committed send touched the wire; it keeps its own timeline.
  if (delivery >= last_send_ && delivery < last_delivery_) {
    delivery = last_delivery_;
  }
  if (now > last_send_) last_send_ = now;
  if (delivery > last_delivery_) last_delivery_ = delivery;
  ++messages_sent_;
  bytes_sent_ += bytes;
  return delivery;
}

Nanos Channel::CommitAt(Nanos now, uint64_t bytes, Nanos delivery) {
  // The queued backend serializes a lagging send behind committed queue
  // residency (shared servers included) before this point; the clamp here
  // is the last line of the reliable-FIFO contract, binding when a
  // SmartNIC-offloaded message would overtake a host-path one whose
  // controller service dominated its delivery.
  if (delivery < last_delivery_) delivery = last_delivery_;
  if (now > last_send_) last_send_ = now;
  last_delivery_ = delivery;
  ++messages_sent_;
  bytes_sent_ += bytes;
  return delivery;
}

void Channel::Reset() {
  messages_sent_ = 0;
  bytes_sent_ = 0;
  last_send_ = 0;
  last_delivery_ = 0;
}

namespace {

/// Retransmission timeout of the transport-level reliability layer: a
/// dropped message on a non-RPC path (coherence, writebacks, syncmem) is
/// resent this much later, preserving the reliable-RDMA contract of §4.1.
constexpr Nanos kLinkRtoNs = 50 * kMicrosecond;

/// Serialization time of `bytes` at `bytes_per_ns`, matching NetTransfer's
/// truncation so kIdeal and queued single-flow numbers agree byte-for-byte.
Nanos SerializationNs(uint64_t bytes, double bytes_per_ns) {
  return static_cast<Nanos>(static_cast<double>(bytes) / bytes_per_ns);
}

}  // namespace

Nanos Fabric::WireSend(Channel& ch, bool to_memory, Link link, Nanos now,
                       uint64_t bytes, MessageKind kind) {
  if (backend_ == Backend::kIdeal) return ch.Send(now, bytes, params_);

  QueueState& qs = QState(to_memory, link);
  const bool offload = SmartNicOffloaded(kind, bytes);

  // Doorbell-batched verb submission: a send within the batch window of
  // this queue pair's previous doorbell rides the posted verb; otherwise it
  // pays the WQE-build + doorbell cost before touching any queue. A lagging
  // virtual-time send always coalesces (its doorbell was provably already
  // rung), keeping submission monotone and replay-deterministic.
  Nanos submit = now;
  if (qs.last_doorbell >= 0 &&
      now <= qs.last_doorbell + params_.doorbell_batch_window_ns) {
    ++coalesced_doorbells_;
    ++pending_.doorbells_coalesced;
  } else {
    submit += params_.verb_overhead_ns;
    ++doorbells_;
    ++pending_.doorbells;
  }
  if (now > qs.last_doorbell) qs.last_doorbell = now;

  // Service start: behind this queue's committed residency AND the shared
  // per-node NIC AND (host path only) the shared per-shard controller.
  // This is the satellite-3 clamp generalized: a lagging send serializes
  // behind committed queue occupancy, not just the last delivery.
  Nanos& nic = nic_busy_[static_cast<size_t>(link.src)];
  Nanos& ctrl = ctrl_busy_[static_cast<size_t>(link.dst)];
  Nanos start = std::max(submit, qs.busy_until);
  start = std::max(start, nic);
  if (!offload) start = std::max(start, ctrl);

  // Occupancy this message observed: committed transfers still in flight
  // when it starts service (its own slot included).
  while (!qs.inflight.empty() && qs.inflight.front() <= start) {
    qs.inflight.pop_front();
  }
  const uint64_t depth = qs.inflight.size() + 1;

  // Each resource serves the bytes at its own rate and is pipelined: it can
  // accept the next message as soon as these bytes are pushed through it.
  // Delivery waits for the slowest resource on the message's path.
  const Nanos link_ser = SerializationNs(bytes, params_.net_bytes_per_ns);
  const Nanos nic_ser = SerializationNs(bytes, params_.nic_bytes_per_ns);
  const Nanos ctrl_ser =
      offload ? 0 : SerializationNs(bytes, params_.ctrl_bytes_per_ns);
  qs.busy_until = start + link_ser;
  nic = start + nic_ser;
  if (!offload) ctrl = start + ctrl_ser;
  const Nanos delivery = start + std::max({link_ser, nic_ser, ctrl_ser}) +
                         params_.net_latency_ns;
  qs.inflight.push_back(delivery);

  const size_t k = static_cast<size_t>(kind);
  if (depth > peak_depth_by_kind_[k]) peak_depth_by_kind_[k] = depth;
  const Nanos wait = start - submit;
  if (wait > 0) {
    ++queued_by_kind_[k];
    queue_wait_by_kind_[k] += static_cast<uint64_t>(wait);
    ++pending_.queued_sends;
    pending_.queue_wait_ns += static_cast<uint64_t>(wait);
    if (tracer_ != nullptr) {
      tracer_->Span("fabricq", MessageKindToString(kind), submit, wait,
                    sim::kTrackFabric);
    }
  }
  if (offload) {
    ++smartnic_offloads_;
    ++pending_.smartnic_offloads;
  }
  return ch.CommitAt(now, bytes, delivery);
}

void Fabric::EmitSendInstant(bool to_memory, Link link, MessageKind kind,
                             uint64_t bytes, Nanos at) {
  std::string args = "\"bytes\":" + std::to_string(bytes) + ",\"to\":\"";
  args += to_memory ? "memory" : "compute";
  args += '"';
  if (link.src != 0 || link.dst != 0) {
    args += ",\"link\":\"c" + std::to_string(link.src) + "-m" +
            std::to_string(link.dst) + "\"";
  }
  tracer_->Instant("fabric", MessageKindToString(kind), at, sim::kTrackFabric,
                   std::move(args));
}

Nanos Fabric::ReliableDeliver(Channel& ch, bool to_memory, Link link,
                              Nanos now, uint64_t bytes, MessageKind kind) {
  if (injector_ == nullptr) {
    CountDelivered(kind, bytes, 1);
    TraceSend(to_memory, link, kind, bytes, now);
    return WireSend(ch, to_memory, link, now, bytes, kind);
  }
  Nanos t = now;
  // A scheduled outage of this link's memory node holds the message at the
  // NIC until the link heals. (Injector windows are always finite; a
  // permanent failure is the panic path, which callers check before
  // sending.)
  {
    const Nanos heal = injector_->HealsAt(t, link.dst);
    if (heal > t) t = heal;
  }
  // Transport-level reliability: each drop is retransmitted one link-RTO
  // later, so delivery is delayed but never lost (§4.1 "reliable RDMA").
  // The retransmit count is capped so a drop_p=1.0 schedule cannot spin
  // forever; past the cap the transport escalates and delivery succeeds.
  FaultDecision d = injector_->OnSend(kind, t, link, to_memory);
  for (int rexmit = 0; d.dropped && rexmit < 64; ++rexmit) {
    t += kLinkRtoNs;
    const Nanos heal = injector_->HealsAt(t, link.dst);
    if (heal > t) t = heal;
    d = injector_->OnSend(kind, t, link, to_memory);
  }
  if (d.dropped) d = FaultDecision{};
  t += d.extra_delay_ns;
  CountDelivered(kind, bytes, d.copies);
  TraceSend(to_memory, link, kind, bytes, t);
  Nanos delivery = WireSend(ch, to_memory, link, t, bytes, kind);
  for (int c = 1; c < d.copies; ++c) {
    WireSend(ch, to_memory, link, t, bytes, kind);  // dup occupies the wire
  }
  return delivery;
}

SendOutcome Fabric::TryDeliver(Channel& ch, bool to_memory, Link link,
                               Nanos now, uint64_t bytes, MessageKind kind) {
  if (injector_ == nullptr) {
    CountDelivered(kind, bytes, 1);
    TraceSend(to_memory, link, kind, bytes, now);
    return SendOutcome{true, WireSend(ch, to_memory, link, now, bytes, kind)};
  }
  if (!injector_->LinkUpAt(now, link.dst)) {
    injector_->CountOutageDrop();
    return SendOutcome{false, 0};
  }
  const FaultDecision d = injector_->OnSend(kind, now, link, to_memory);
  if (d.dropped) return SendOutcome{false, 0};
  CountDelivered(kind, bytes, d.copies);
  const Nanos t = now + d.extra_delay_ns;
  TraceSend(to_memory, link, kind, bytes, t);
  Nanos delivery = WireSend(ch, to_memory, link, t, bytes, kind);
  for (int c = 1; c < d.copies; ++c) {
    WireSend(ch, to_memory, link, t, bytes, kind);
  }
  return SendOutcome{true, delivery, d.copies};
}

Nanos Fabric::RoundTripFromCompute(Link link, Nanos now, uint64_t req_bytes,
                                   uint64_t resp_bytes, Nanos handler_ns,
                                   MessageKind req_kind,
                                   MessageKind resp_kind) {
  const Nanos arrive = ReliableDeliver(C2m(link), /*to_memory=*/true, link,
                                       now, req_bytes, req_kind);
  // A SmartNIC-offloaded request is answered by the NIC-side executor
  // instead of the host round trip through the controller's workqueue.
  const Nanos handler = SmartNicOffloaded(req_kind, req_bytes)
                            ? params_.smartnic_handler_ns
                            : handler_ns;
  const Nanos reply_sent = arrive + handler;
  return ReliableDeliver(M2c(link), /*to_memory=*/false, link, reply_sent,
                         resp_bytes, resp_kind);
}

Nanos Fabric::RoundTripFromMemory(Link link, Nanos now, uint64_t req_bytes,
                                  uint64_t resp_bytes, Nanos handler_ns,
                                  MessageKind req_kind,
                                  MessageKind resp_kind) {
  const Nanos arrive = ReliableDeliver(M2c(link), /*to_memory=*/false, link,
                                       now, req_bytes, req_kind);
  const Nanos handler = SmartNicOffloaded(req_kind, req_bytes)
                            ? params_.smartnic_handler_ns
                            : handler_ns;
  const Nanos reply_sent = arrive + handler;
  return ReliableDeliver(C2m(link), /*to_memory=*/true, link, reply_sent,
                         resp_bytes, resp_kind);
}

SendOutcome Fabric::TryRoundTripFromCompute(Link link, Nanos now,
                                            uint64_t req_bytes,
                                            uint64_t resp_bytes,
                                            Nanos handler_ns,
                                            MessageKind req_kind,
                                            MessageKind resp_kind) {
  const SendOutcome req = TryDeliver(C2m(link), /*to_memory=*/true, link,
                                     now, req_bytes, req_kind);
  if (!req.delivered) return req;
  const Nanos handler = SmartNicOffloaded(req_kind, req_bytes)
                            ? params_.smartnic_handler_ns
                            : handler_ns;
  const Nanos reply_sent = req.deliver_at + handler;
  return TryDeliver(M2c(link), /*to_memory=*/false, link, reply_sent,
                    resp_bytes, resp_kind);
}

Nanos Fabric::SendGatherToMemory(Link link, Nanos now,
                                 const std::vector<uint64_t>& segments,
                                 MessageKind kind) {
  uint64_t total = 0;
  for (const uint64_t b : segments) total += b;
  if (backend_ != Backend::kIdeal) {
    ++sg_sends_;
    sg_segments_ += segments.size();
    pending_.sg_segments += segments.size();
  }
  return SendToMemory(link, now, total, kind);
}

Nanos Fabric::SendGatherToCompute(Link link, Nanos now,
                                  const std::vector<uint64_t>& segments,
                                  MessageKind kind) {
  uint64_t total = 0;
  for (const uint64_t b : segments) total += b;
  if (backend_ != Backend::kIdeal) {
    ++sg_sends_;
    sg_segments_ += segments.size();
    pending_.sg_segments += segments.size();
  }
  return SendToCompute(link, now, total, kind);
}

Nanos Fabric::SendPages(int node, Nanos now,
                        const std::vector<uint64_t>& pages_per_shard,
                        uint64_t header, bool to_memory, MessageKind kind,
                        bool stream) {
  uint64_t pages = 0;
  for (const uint64_t n : pages_per_shard) pages += n;
  if (stream && (backend_ == Backend::kIdeal || pages == 0)) {
    return now + params_.net_latency_ns +
           SerializationNs(pages * params_.page_size, params_.net_bytes_per_ns);
  }
  Nanos last = now;
  std::vector<uint64_t> segments;
  for (size_t s = 0; s < pages_per_shard.size(); ++s) {
    if (pages_per_shard[s] == 0) continue;
    segments.assign(header > 0 ? 1 : 0, header);
    segments.insert(segments.end(), pages_per_shard[s], params_.page_size);
    const Link link{node, static_cast<int>(s)};
    last = std::max(last, to_memory
                              ? SendGatherToMemory(link, now, segments, kind)
                              : SendGatherToCompute(link, now, segments, kind));
  }
  return last;
}

Nanos Fabric::QueueBacklogNs(Link link, Nanos now) const {
  if (backend_ == Backend::kIdeal) return 0;
  const Nanos nic = nic_busy_[static_cast<size_t>(link.src)];
  const Nanos ctrl = ctrl_busy_[static_cast<size_t>(link.dst)];
  Nanos backlog = 0;
  for (const bool to_memory : {true, false}) {
    const QueueState& qs = QState(to_memory, link);
    const Nanos start = std::max({qs.busy_until, nic, ctrl});
    if (start > now) backlog += start - now;
  }
  return backlog;
}

void Fabric::DrainQueueStats(sim::Metrics& m) {
  // kIdeal never touches the queue machinery, so pending_ stays all-zero
  // and the drain, which charge points call after every send, can return
  // at once.
  if (backend_ == Backend::kIdeal) return;
  m.netq_queued_sends += pending_.queued_sends;
  m.netq_queue_wait_ns += pending_.queue_wait_ns;
  m.netq_doorbells += pending_.doorbells;
  m.netq_doorbells_coalesced += pending_.doorbells_coalesced;
  m.netq_sg_segments += pending_.sg_segments;
  m.netq_smartnic_offloads += pending_.smartnic_offloads;
  pending_ = PendingQueueStats{};
}

Nanos Fabric::NextReachableAt(Nanos now, int memory_node) const {
  // Injector outages may touch end to end, and the node may go down for
  // good while one lasts.
  Nanos t = now;
  while (!HardDownAt(t, memory_node)) {
    const Nanos heal =
        injector_ != nullptr ? injector_->HealsAt(t, memory_node) : -1;
    if (heal <= t) return t;
    t = heal;
  }
  return kNeverHeals;
}

std::string Fabric::KindBreakdownToString() const {
  std::ostringstream os;
  os << "fabric{";
  bool first = true;
  for (int k = 0; k < kNumMessageKinds; ++k) {
    const MessageKind kind = static_cast<MessageKind>(k);
    if (messages_of(kind) == 0) continue;
    if (!first) os << " ";
    first = false;
    os << MessageKindToString(kind) << "=" << messages_of(kind) << "/"
       << bytes_of(kind) << "B";
  }
  os << "}";
  return os.str();
}

std::string Fabric::QueueBreakdownToString() const {
  std::ostringstream os;
  os << "fabricq{";
  bool first = true;
  auto sep = [&] {
    if (!first) os << " ";
    first = false;
  };
  for (int k = 0; k < kNumMessageKinds; ++k) {
    const size_t i = static_cast<size_t>(k);
    if (queued_by_kind_[i] == 0 && peak_depth_by_kind_[i] == 0) continue;
    sep();
    os << MessageKindToString(static_cast<MessageKind>(k)) << "="
       << queued_by_kind_[i] << "/" << queue_wait_by_kind_[i] << "ns/peak"
       << peak_depth_by_kind_[i];
  }
  if (doorbells_ != 0 || coalesced_doorbells_ != 0) {
    sep();
    os << "doorbells=" << doorbells_ << "+" << coalesced_doorbells_ << "c";
  }
  if (sg_sends_ != 0) {
    sep();
    os << "sg=" << sg_sends_ << "/" << sg_segments_ << "seg";
  }
  if (smartnic_offloads_ != 0) {
    sep();
    os << "offloads=" << smartnic_offloads_;
  }
  os << "}";
  return os.str();
}

void Fabric::Reset() {
  for (Channel& ch : compute_to_memory_) ch.Reset();
  for (Channel& ch : memory_to_compute_) ch.Reset();
  std::fill(fail_from_.begin(), fail_from_.end(), -1);
  messages_by_kind_.fill(0);
  bytes_by_kind_.fill(0);
  for (QueueState& qs : q_c2m_) qs = QueueState{};
  for (QueueState& qs : q_m2c_) qs = QueueState{};
  std::fill(nic_busy_.begin(), nic_busy_.end(), 0);
  std::fill(ctrl_busy_.begin(), ctrl_busy_.end(), 0);
  queued_by_kind_.fill(0);
  queue_wait_by_kind_.fill(0);
  peak_depth_by_kind_.fill(0);
  doorbells_ = 0;
  coalesced_doorbells_ = 0;
  sg_sends_ = 0;
  sg_segments_ = 0;
  smartnic_offloads_ = 0;
  pending_ = PendingQueueStats{};
  if (injector_ != nullptr) injector_->Reset();
}

}  // namespace teleport::net
