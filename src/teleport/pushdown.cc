#include "teleport/pushdown.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <sstream>

#include "common/logging.h"
#include "common/rle.h"
#include "sim/tracer.h"
#include "teleport/retry.h"

namespace teleport::tp {

std::string_view SyncStrategyToString(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kOnDemand:
      return "OnDemand";
    case SyncStrategy::kEager:
      return "Eager";
    case SyncStrategy::kEagerRange:
      return "EagerRange";
  }
  return "Unknown";
}

std::string_view FallbackPolicyToString(FallbackPolicy f) {
  switch (f) {
    case FallbackPolicy::kNone:
      return "None";
    case FallbackPolicy::kLocal:
      return "Local";
  }
  return "Unknown";
}

namespace {

/// Recovery-class faults the runtime can surface (§3.2 + PR6 crash
/// recovery). Every such Status comes from this one table so the codes and
/// messages cannot drift apart across the heartbeat / pushdown / fencing
/// paths.
enum class RecoveryFault {
  kUnreachable,    ///< heartbeat lost; the real system panics (§3.2)
  kFenced,         ///< admission epoch went stale and re-admission failed
  kUnrecoverable,  ///< a restart dropped writes the journal never covered
};

Status RecoveryStatus(RecoveryFault f) {
  switch (f) {
    case RecoveryFault::kUnreachable:
      return Status::Unavailable("memory pool unreachable (heartbeat lost)");
    case RecoveryFault::kFenced:
      return Status::Fenced(
          "pushdown admission epoch went stale across pool recoveries");
    case RecoveryFault::kUnrecoverable:
      return Status::Unavailable(
          "pool restart dropped writes the journal never covered "
          "(unacknowledged direct pool stores are unrecoverable)");
  }
  return Status::Internal("unknown recovery fault");
}

}  // namespace

void PushdownBreakdown::Add(const PushdownBreakdown& o) {
  pre_sync_ns += o.pre_sync_ns;
  request_transfer_ns += o.request_transfer_ns;
  queue_wait_ns += o.queue_wait_ns;
  context_setup_ns += o.context_setup_ns;
  function_exec_ns += o.function_exec_ns;
  online_sync_ns += o.online_sync_ns;
  response_transfer_ns += o.response_transfer_ns;
  post_sync_ns += o.post_sync_ns;
  retry_ns += o.retry_ns;
}

std::string PushdownBreakdown::ToString() const {
  std::ostringstream os;
  os << "pre_sync=" << ToMillis(pre_sync_ns)
     << "ms request=" << ToMillis(request_transfer_ns)
     << "ms queue=" << ToMillis(queue_wait_ns)
     << "ms setup=" << ToMillis(context_setup_ns)
     << "ms exec=" << ToMillis(function_exec_ns)
     << "ms online_sync=" << ToMillis(online_sync_ns)
     << "ms response=" << ToMillis(response_transfer_ns)
     << "ms post_sync=" << ToMillis(post_sync_ns)
     << "ms retry=" << ToMillis(retry_ns) << "ms";
  return os.str();
}

PushdownRuntime::PushdownRuntime(ddc::MemorySystem* ms, int num_instances)
    : ms_(ms) {
  TELEPORT_CHECK(num_instances >= 1);
  TELEPORT_CHECK(ms_->config().platform == ddc::Platform::kBaseDdc)
      << "TELEPORT runs on disaggregated platforms only";
  instance_free_.assign(
      static_cast<size_t>(ms_->memory_shards()),
      std::vector<Nanos>(static_cast<size_t>(num_instances), 0));
}

Status PushdownRuntime::CheckHeartbeat(ddc::ExecutionContext& ctx,
                                       int shard) {
  const auto& params = ms_->params();
  net::Fabric& fabric = ms_->fabric();
  const net::Link link{static_cast<int>(ctx.node()), shard};
  ms_->ApplyPoolRestarts(ctx);
  if (panicked_ || fabric.HardDownAt(ctx.now(), shard)) {
    // The real system triggers a kernel panic: main memory is lost (§3.2).
    panicked_ = true;
    ctx.AdvanceTime(params.net_latency_ns * 2);
    return RecoveryStatus(RecoveryFault::kUnreachable);
  }
  // Dropped probes are retried with backoff, and a transient outage (link
  // flap / restartable memory node) is waited out instead of latched as a
  // panic. Only a pool that will never answer again is §3.2's
  // lost-main-memory case.
  //
  // Congestion-aware liveness deadline: the winning probe's own round trip
  // is judged, so retransmission backoff and outage waits never count
  // against it, and the queue residency on its link just before it is sent
  // is excused — a saturated-but-healthy shard answers slowly because the
  // fabric is busy, not because the pool is dead. Only delay beyond
  // deadline + observable backlog panics.
  Nanos allowed = 0;
  const RetryResult probe = Retry(
      fabric, shard, RetryPolicy{}, retry_rng_, ctx.now(), /*rounds=*/16,
      [&](Nanos t) {
        allowed = params.heartbeat_deadline_ns + fabric.QueueBacklogNs(link, t);
        return fabric.TryRoundTripFromCompute(
            link, t, 64, 64, params.fault_handler_ns,
            net::MessageKind::kHeartbeat, net::MessageKind::kHeartbeat);
      },
      [](Nanos) {});
  CountRetries(ctx, probe.retries);
  ctx.clock().AdvanceTo(probe.delivered ? probe.outcome.deliver_at
                                        : probe.at);
  fabric.DrainQueueStats(ctx.metrics());
  if (probe.delivered) {
    ctx.metrics().net_messages += 2;
    ctx.metrics().net_bytes += 128;
  }
  if (!probe.delivered || probe.outcome.deliver_at - probe.at > allowed) {
    panicked_ = true;
    return RecoveryStatus(RecoveryFault::kUnreachable);
  }
  ms_->ApplyPoolRestarts(ctx);
  return Status::OK();
}

/// What Begin's stages hand on to each other: the request's identity,
/// size and delivery, and when it starts executing on the home shard.
struct PushdownRuntime::Request {
  /// Every shard's epoch the request is admitted under.
  std::vector<uint64_t> admit_epochs;
  uint64_t token = 0;  ///< idempotency token of the call
  uint64_t bytes = kPushdownRequestBytes;
  uint64_t resident = 0;  ///< entries of the resident-page list
  ddc::CoherenceMode mode = ddc::CoherenceMode::kMesi;  ///< the session's
  Nanos arrive = 0;
  int copies = 1;  ///< delivered copies presenting the token
  Nanos start = 0;
  Nanos fence_ns = 0;
};

Status PushdownRuntime::Pushdown(ddc::ExecutionContext& caller, PushdownFn fn,
                                 void* arg, const PushdownFlags& flags) {
  PushdownSession s(caller, flags);
  const Status st = Begin(s);
  return st.ok() ? End(s, fn(s.ctx(), arg)) : st;
}

Status PushdownRuntime::Begin(PushdownSession& s) {
  ddc::ExecutionContext& caller = s.caller_;
  TELEPORT_CHECK(caller.pool() == ddc::Pool::kCompute)
      << "pushdown must be called from the compute pool";
  const int home = s.flags_.home_shard;
  TELEPORT_CHECK(home >= 0 && home < ms_->memory_shards())
      << "home shard " << home << " outside the rack's "
      << ms_->memory_shards() << " shards";
  s.link_ = net::Link{static_cast<int>(caller.node()), home};

  // Materialize any memory-node crash-restart that completed before this
  // call. Journal-off (the seed's lossy mode) the restarted pool simply
  // lost its unflushed writes (§3.2); journal-on recovery replays every
  // acknowledged write, so anything still lost was never acknowledged —
  // surfaced as an unrecoverable fault instead of silence.
  const uint64_t lost_now = ms_->ApplyPoolRestarts(caller);
  if (lost_now > 0 && ms_->journal_enabled()) {
    return RecoveryStatus(RecoveryFault::kUnrecoverable);
  }

  if (panicked_ || ms_->fabric().HardDownAt(caller.now(), home)) {
    panicked_ = true;
    caller.AdvanceTime(ms_->params().net_latency_ns * 2);
    return RecoveryStatus(RecoveryFault::kUnreachable);
  }

  s.t0_ = caller.now();
  // Lease + idempotency identity of this call (PR6, sharded in PR7): the
  // call snapshots every shard's admission epoch — its touches may fault
  // pages of any shard — and each shard fences independently: a recovery of
  // shard k invalidates only admit_epochs[k]. The token lets the home
  // shard's controller deduplicate redelivered copies.
  Request req;
  req.admit_epochs.resize(static_cast<size_t>(ms_->memory_shards()));
  for (int k = 0; k < ms_->memory_shards(); ++k) {
    req.admit_epochs[static_cast<size_t>(k)] = ms_->pool_epoch(k);
  }
  req.token = ++next_token_;

  PreSync(s, req);
  if (std::optional<Status> over = SendRequest(s, req)) return *over;
  if (std::optional<Status> over = Enqueue(s, req)) return *over;
  if (std::optional<Status> over = TryCancel(s, req)) return *over;
  s.bd_.queue_wait_ns = req.start - req.arrive - req.fence_ns;
  SetUpContext(s, req);
  return Status::OK();
}

void PushdownRuntime::PreSync(PushdownSession& s, Request& req) {
  // (1) Pre-pushdown synchronization.
  ddc::ExecutionContext& caller = s.caller_;
  const PushdownFlags& flags = s.flags_;
  req.mode = flags.coherence;
  switch (flags.sync) {
    case SyncStrategy::kOnDemand: {
      // A kNone session maps every page writable and never reads the
      // resident list, so it sends none and clones no PTEs.
      if (flags.coherence == ddc::CoherenceMode::kNone) break;
      // Build and RLE-compress the resident page list (§4.1, §6).
      const std::vector<PageEntry> resident = ms_->ResidentPages();
      req.resident = resident.size();
      caller.AdvanceTime(static_cast<Nanos>(resident.size()) *
                         ms_->params().resident_scan_ns);
      const std::vector<PageRun> runs = RleEncode(resident);
      const uint64_t raw = RawSizeBytes(resident.size());
      const uint64_t rle = RleSizeBytes(runs);
      last_page_list_compression_ =
          rle == 0 ? 1.0 : static_cast<double>(raw) / static_cast<double>(rle);
      req.bytes += rle;
      break;
    }
    case SyncStrategy::kEager:
      s.eager_flushed_ = ms_->FlushAllCache(caller, /*drop=*/true);
      req.mode = ddc::CoherenceMode::kNone;  // everything already synced
      break;
    case SyncStrategy::kEagerRange:
      TELEPORT_CHECK(flags.sync_len > 0)
          << "kEagerRange requires sync_addr/sync_len";
      ms_->FlushRange(caller, flags.sync_addr, flags.sync_len, /*drop=*/true);
      req.mode = ddc::CoherenceMode::kNone;
      break;
  }
  s.bd_.pre_sync_ns = caller.now() - s.t0_;
}

std::optional<Status> PushdownRuntime::SendRequest(PushdownSession& s,
                                                   Request& req) {
  // (2) Request transfer over the fabric (single RDMA message, §6). The
  // send is fault-visible: a dropped request costs one RTO plus backoff
  // before the retransmit (§3.2).
  ddc::ExecutionContext& caller = s.caller_;
  const int home = s.flags_.home_shard;
  const Nanos send_time = caller.now();
  if (sim::Tracer* tracer = ms_->tracer()) {
    tracer->Instant("pushdown", "Dispatch", send_time, sim::kTrackCompute);
  }
  const RetryResult sent = Retry(
      ms_->fabric(), home, RetryPolicy{}, retry_rng_, send_time,
      /*rounds=*/1,
      [&](Nanos t) {
        return ms_->fabric().TrySendToMemory(
            s.link_, t, req.bytes, net::MessageKind::kPushdownRequest);
      },
      [&](Nanos t) {
        if (sim::Tracer* tracer = ms_->tracer()) {
          tracer->Instant("pushdown", "RetryRequest", t, sim::kTrackCompute);
        }
      });
  CountRetries(caller, sent.retries);
  s.bd_.retry_ns += sent.waited;
  req.arrive = sent.outcome.deliver_at;
  req.copies = sent.outcome.copies;
  if (!sent.delivered) {
    if (s.flags_.fallback == FallbackPolicy::kLocal &&
        ms_->fabric().NextReachableAt(sent.at, home) !=
            net::Fabric::kNeverHeals) {
      // Restartable pool but the retry budget is spent: §3.2 escape
      // hatch — run the function locally instead of failing the call.
      caller.clock().AdvanceTo(sent.at);
      return StartLocal(s, /*cancel_sent=*/false);
    }
    // No fallback requested: hand the request to the reliable transport,
    // which retransmits below the RPC layer and cannot lose it.
    req.arrive = ms_->fabric().SendToMemory(
        s.link_, sent.at, req.bytes, net::MessageKind::kPushdownRequest);
    req.copies = 1;
  }
  caller.metrics().net_messages += 1;
  caller.metrics().net_bytes += req.bytes;
  s.bd_.request_transfer_ns = req.arrive - send_time - s.bd_.retry_ns;
  return std::nullopt;
}

std::optional<Status> PushdownRuntime::Enqueue(PushdownSession& s,
                                               Request& req) {
  // Queue for a free memory-pool instance of the HOME shard (FIFO
  // workqueue, §3.2; per-shard in PR7 — each shard owns its pool cores).
  // A small probe the SmartNIC backend offloads executes NIC-side instead:
  // it never waits for (or occupies) a host instance, which is what shifts
  // the small-message latency knee under load.
  ddc::ExecutionContext& caller = s.caller_;
  const int home = s.flags_.home_shard;
  const bool nic_side = ms_->fabric().SmartNicOffloaded(
      net::MessageKind::kPushdownRequest, req.bytes);
  std::vector<Nanos>& shard_slots = instance_free_[static_cast<size_t>(home)];
  Nanos* slot = &*std::min_element(shard_slots.begin(), shard_slots.end());
  s.slot_ = nic_side ? nullptr : slot;
  req.start = nic_side ? req.arrive : std::max(req.arrive, *slot);

  // Lease fencing (PR6, per-shard in PR7): if a crash-restart window of any
  // shard completed while the request was in flight or queued, that shard
  // runs under a newer epoch and deterministically rejects the stale-epoch
  // request; the caller re-admits under the fresh epochs and resends. Only
  // the restarted shard's lease goes stale — shard A's recovery never
  // fences a call whose epochs for A were already current. The rejection
  // itself rides the home link (one reply + one resend per round, exactly
  // the 1x1 message sequence). Journal-off keeps the seed's lossy behavior:
  // restarts materialize lazily at the next quiescent point, with no
  // fencing.
  if (!ms_->journal_enabled()) return std::nullopt;
  const auto any_stale = [&]() {
    for (int k = 0; k < ms_->memory_shards(); ++k) {
      if (ms_->pool_epoch(k) != req.admit_epochs[static_cast<size_t>(k)]) {
        return true;
      }
    }
    return false;
  };
  const bool skip_fencing =
      ms_->protocol_mutation() == ddc::ProtocolMutation::kSkipFencing;
  for (int admit = 0; admit < 4; ++admit) {
    const ddc::MemorySystem::RestartOutcome ro =
        ms_->ApplyPoolRestartsAt(caller, req.start);
    req.start += ro.recovery_ns;
    req.fence_ns += ro.recovery_ns;
    if (!any_stale()) break;
    if (skip_fencing) break;  // planted bug: the pool executes the request
    // kFenced rejection: a small reply back to the caller, then a fresh
    // request under the new epochs. All of it is recovery time.
    ++fenced_rpcs_;
    ++caller.metrics().fenced_rpcs;
    if (sim::Tracer* tracer = ms_->tracer()) {
      tracer->Instant("pushdown", "Fenced", req.start, sim::kTrackMemoryPool,
                      "\"epoch\":" + std::to_string(ms_->pool_epoch(home)));
    }
    const Nanos rej_arrive = ms_->fabric().SendToCompute(
        s.link_, req.start, 64, net::MessageKind::kPushdownResponse);
    const Nanos rearrive = ms_->fabric().SendToMemory(
        s.link_, rej_arrive, req.bytes, net::MessageKind::kPushdownRequest);
    caller.metrics().net_messages += 2;
    caller.metrics().net_bytes += 64 + req.bytes;
    for (int k = 0; k < ms_->memory_shards(); ++k) {
      req.admit_epochs[static_cast<size_t>(k)] = ms_->pool_epoch(k);
    }
    const Nanos prev_start = req.start;
    req.start = nic_side ? rearrive : std::max(rearrive, *slot);
    req.fence_ns += req.start - prev_start;
  }
  s.bd_.retry_ns += req.fence_ns;
  if (!any_stale() || skip_fencing) return std::nullopt;
  // Re-admission budget exhausted (restarts kept completing under us).
  caller.clock().AdvanceTo(req.start);
  if (s.flags_.fallback == FallbackPolicy::kLocal &&
      ms_->fabric().NextReachableAt(req.start, home) !=
          net::Fabric::kNeverHeals) {
    return StartLocal(s, /*cancel_sent=*/false);
  }
  return RecoveryStatus(RecoveryFault::kFenced);
}

std::optional<Status> PushdownRuntime::TryCancel(PushdownSession& s,
                                                 const Request& req) {
  // Timeout / try_cancel (§3.2): cancellation succeeds only if the request
  // has not started executing when the cancel arrives. Otherwise the
  // memory pool declines to cancel and the application waits for
  // completion.
  ddc::ExecutionContext& caller = s.caller_;
  const PushdownFlags& flags = s.flags_;
  if (flags.timeout_ns <= 0) return std::nullopt;
  const Nanos cancel_sent = s.t0_ + flags.timeout_ns;
  const Nanos cancel_arrives = cancel_sent + ms_->params().NetTransfer(64);
  if (req.start <= cancel_arrives) return std::nullopt;
  const Nanos done = ms_->fabric().RoundTripFromCompute(
      s.link_, cancel_sent, 64, 64, ms_->params().fault_handler_ns,
      net::MessageKind::kTryCancel, net::MessageKind::kTryCancel);
  caller.clock().AdvanceTo(done);
  caller.metrics().net_messages += 2;
  caller.metrics().net_bytes += 128;
  ++cancelled_calls_;
  if (sim::Tracer* tracer = ms_->tracer()) {
    tracer->Instant("pushdown", "TryCancel", cancel_sent, sim::kTrackCompute);
  }
  // The caller abandoned the request mid-flight: it never waited for the
  // (possibly fault-delayed) delivery, so the transfer time is not part of
  // its timeline. Leaving it in the breakdown would misattribute the cancel
  // wait and drive retry_ns negative under the conservation rebalance in
  // End.
  s.bd_.request_transfer_ns = 0;
  if (flags.fallback == FallbackPolicy::kLocal) {
    // §3.2: "the application is then free to execute the function
    // locally" — do so transparently instead of surfacing TimedOut.
    return StartLocal(s, /*cancel_sent=*/true);
  }
  return Status::TimedOut("pushdown cancelled before execution");
}

void PushdownRuntime::SetUpContext(PushdownSession& s, const Request& req) {
  // (3) Temporary user context setup (vfork-like attach, Fig 8). The table
  // clone is lazy/COW; the real per-entry work is checking and invalidating
  // the PTEs named in the resident list (§7.5: setup time grows with the
  // compute cache size), so cost scales with resident pages. Eager modes
  // flushed the cache first and pay only the fixed attach cost.
  // Exactly-once admission: every delivered copy of the request presents
  // the call's idempotency token; the pool's dedup table admits the first
  // and absorbs the rest (injected duplicates, capped retries).
  const auto& params = ms_->params();
  const int home = s.flags_.home_shard;
  bool execute = false;
  for (int c = 0; c < req.copies; ++c) {
    const bool admitted = ms_->AdmitPushdown(s.caller_, req.token, req.start,
                                             home);
    execute = execute || admitted;
  }
  TELEPORT_CHECK(execute)
      << "first delivery of pushdown token " << req.token
      << " must execute";

  ms_->BeginPushdownSession(req.mode,
                            req.admit_epochs[static_cast<size_t>(home)], home);
  s.bd_.context_setup_ns =
      params.context_fixed_ns +
      static_cast<Nanos>(req.resident) * params.pte_clone_ns;

  // (4) Function execution in the home shard's user context, on behalf of
  // the caller's tenant, from the end of the set-up.
  s.body_start_ = req.start + s.bd_.context_setup_ns;
  s.mem_ctx_.clock().Reset(s.body_start_);
  // The caller's task is blocked on this call: hand its cooperative yield
  // hook to the kernel so memory-side retry loops (seqlock probes racing a
  // structural writer) preempt like the caller would, instead of spinning
  // the schedule into a livelock against a suspended writer.
  s.mem_ctx_.set_yield_hook(s.caller_.yield_fn(), s.caller_.yield_arg());
}

Status PushdownRuntime::StartLocal(PushdownSession& s, bool cancel_sent) {
  ddc::ExecutionContext& caller = s.caller_;
  if (!cancel_sent) {
    // Best-effort try_cancel so a late-delivered request is not executed by
    // the pool as well; a drop is acceptable — the pool discards requests
    // whose caller already gave up on them.
    const net::SendOutcome probe = ms_->fabric().TrySendToMemory(
        s.link_, caller.now(), 64, net::MessageKind::kTryCancel);
    if (probe.delivered) {
      caller.metrics().net_messages += 1;
      caller.metrics().net_bytes += 64;
    }
  }
  // Local execution in the caller's own context: pages the function needs
  // come in through ordinary demand paging (which itself rides the retry
  // layer while the pool recovers).
  s.local_ = true;
  s.body_start_ = caller.now();
  if (sim::Tracer* tracer = ms_->tracer()) {
    tracer->Instant("pushdown", "LocalFallback", s.body_start_,
                    sim::kTrackCompute);
  }
  return Status::OK();
}

Status PushdownRuntime::End(PushdownSession& s, Status st) {
  ddc::ExecutionContext& caller = s.caller_;
  PushdownBreakdown& bd = s.bd_;
  if (s.local_) {
    bd.function_exec_ns = caller.now() - s.body_start_;
    // Everything else the caller waited on — exhausted attempts, backoff,
    // outage waits, the cancel round trip — is recovery time, so the
    // breakdown still sums exactly to the caller's elapsed time.
    const Nanos other = bd.Total() - bd.retry_ns;
    bd.retry_ns = (caller.now() - s.t0_) - other;
    ++fallback_calls_;
    caller.metrics().fallbacks += 1;
    caller.metrics().pushdown_calls += 1;
    FinishCall(bd, s.t0_, /*fallback=*/true, s.flags_.kernel);
    return st;
  }
  ddc::ExecutionContext& mem_ctx = s.mem_ctx_;
  const Nanos fn_total = mem_ctx.now() - s.body_start_;
  bd.online_sync_ns = mem_ctx.coherence_ns();
  bd.function_exec_ns = fn_total - bd.online_sync_ns;
  if (fn_total > kKillTimeoutNs && st.ok()) {
    st = Status::Fault(
        "pushed function exceeded the kill timeout; aborted to unblock the "
        "workqueue (§3.2)");
  }
  // Session teardown before the metrics roll-up: the final dirty-bit merge
  // is where journal acknowledgement happens, and its appends are charged
  // to mem_ctx. The merge is post-pushdown synchronization, accounted below
  // so the breakdown still sums to the caller's elapsed time.
  const Nanos merge0 = mem_ctx.now();
  ms_->EndPushdownSession(&mem_ctx);
  const Nanos merge_ns = mem_ctx.now() - merge0;
  caller.metrics().Add(mem_ctx.metrics());
  caller.metrics().pushdown_calls += 1;

  // (5) Response transfer; the instance is recycled. A dropped response is
  // retransmitted by the memory side (the function already executed — it is
  // never re-run); after the retry budget the reliable transport carries it.
  const Nanos resp_sent = mem_ctx.now() + ms_->params().context_fixed_ns / 4;
  if (s.slot_ != nullptr) *s.slot_ = resp_sent;
  const RetryResult resp = Retry(
      ms_->fabric(), s.flags_.home_shard, RetryPolicy{}, retry_rng_,
      resp_sent, /*rounds=*/1,
      [&](Nanos t) {
        return ms_->fabric().TrySendToCompute(
            s.link_, t, kPushdownResponseBytes,
            net::MessageKind::kPushdownResponse);
      },
      [&](Nanos t) {
        if (sim::Tracer* tracer = ms_->tracer()) {
          tracer->Instant("pushdown", "RetryResponse", t,
                          sim::kTrackMemoryPool);
        }
      });
  CountRetries(caller, resp.retries);
  const Nanos resp_arrive =
      resp.delivered ? resp.outcome.deliver_at
                     : ms_->fabric().SendToCompute(
                           s.link_, resp.at, kPushdownResponseBytes,
                           net::MessageKind::kPushdownResponse);
  caller.metrics().net_messages += 1;
  caller.metrics().net_bytes += kPushdownResponseBytes;
  caller.clock().AdvanceTo(resp_arrive);
  ms_->fabric().DrainQueueStats(caller.metrics());
  // Includes the instance-recycle interval so the per-call breakdown sums
  // exactly to the caller's observed elapsed time.
  bd.retry_ns += resp.waited;
  bd.response_transfer_ns = resp_arrive - mem_ctx.now() - resp.waited;

  // (6) Post-pushdown synchronization. On-demand: dirty bits merged locally
  // in the pool; compute re-faults lazily (§4.1). The merge's
  // journal-append time (zero with the journal off) counts here too.
  const Nanos post0 = caller.now();
  if (s.flags_.sync == SyncStrategy::kEager) {
    ms_->BulkRefetch(caller, s.eager_flushed_);
  }
  bd.post_sync_ns = (caller.now() - post0) + merge_ns;

  FinishCall(bd, s.t0_, /*fallback=*/false, s.flags_.kernel);
  return st;
}

void PushdownRuntime::CountRetries(ddc::ExecutionContext& ctx, uint64_t n) {
  retry_events_ += n;
  ctx.metrics().retries += n;
  ctx.metrics().fault_events += n;
}

void PushdownRuntime::FinishCall(const PushdownBreakdown& bd, Nanos t0,
                                 bool fallback, int kernel) {
  // TraceCall reads completed_calls_ as this call's id: bump it after.
  TraceCall(bd, t0, fallback, kernel);
  last_breakdown_ = bd;
  total_breakdown_.Add(bd);
  call_latency_.Add(bd.Total());
  online_sync_latency_.Add(bd.online_sync_ns);
  ++completed_calls_;
  if (kernel >= 0 && static_cast<size_t>(kernel) < kernel_calls_.size()) {
    ++kernel_calls_[static_cast<size_t>(kernel)];
  }
}

int PushdownRuntime::RegisterKernel(const std::string& name) {
  for (size_t i = 0; i < kernel_names_.size(); ++i) {
    if (kernel_names_[i] == name) return static_cast<int>(i);
  }
  kernel_names_.push_back(name);
  kernel_calls_.push_back(0);
  return static_cast<int>(kernel_names_.size()) - 1;
}

void PushdownRuntime::TraceCall(const PushdownBreakdown& bd, Nanos t0,
                                bool fallback, int kernel) {
  sim::Tracer* tracer = ms_->tracer();
  if (tracer == nullptr) return;
  // completed_calls_ has not been bumped yet, so it is this call's 0-based
  // id; the same tag on every child span lets tests and trace queries
  // reassemble one request's components.
  std::string id = "\"call\":" + std::to_string(completed_calls_);
  if (kernel >= 0 && static_cast<size_t>(kernel) < kernel_names_.size()) {
    id += ",\"kernel\":\"" + kernel_names_[static_cast<size_t>(kernel)] + "\"";
  }
  tracer->Span("pushdown", "call", t0, bd.Total(), sim::kTrackCompute,
               fallback ? id + ",\"fallback\":true" : id);
  // Components are laid out consecutively from t0 in breakdown order. The
  // layout is an attribution view, not a strict interleaving (online_sync
  // really overlaps function_exec), but it tiles the enclosing span
  // exactly: child durations sum to bd.Total() by construction.
  const struct {
    std::string_view name;
    Nanos dur;
  } parts[] = {
      {"pre_sync", bd.pre_sync_ns},
      {"request_transfer", bd.request_transfer_ns},
      {"queue_wait", bd.queue_wait_ns},
      {"context_setup", bd.context_setup_ns},
      {"function_exec", bd.function_exec_ns},
      {"online_sync", bd.online_sync_ns},
      {"response_transfer", bd.response_transfer_ns},
      {"post_sync", bd.post_sync_ns},
      {"retry", bd.retry_ns},
  };
  Nanos at = t0;
  for (const auto& part : parts) {
    if (part.dur == 0) continue;
    tracer->Span("pushdown", part.name, at, part.dur, sim::kTrackCompute,
                 std::string(id));
    at += part.dur;
  }
}

Nanos InstancePoolMakespan(int n_requests, Nanos busy_ns, Nanos stall_ns,
                           int instances, int cores,
                           const sim::CostParams& params) {
  TELEPORT_CHECK(n_requests > 0 && instances > 0 && cores > 0);
  // Each request alternates `kSegments` busy/stall segment pairs; instances
  // compete for cores on busy segments (greedy earliest-core assignment,
  // FIFO request order). Oversubscription charges a context switch per
  // busy-segment dispatch.
  constexpr int kSegments = 10;
  const Nanos busy_seg = busy_ns / kSegments;
  const Nanos stall_seg = stall_ns / kSegments;
  const bool oversubscribed = instances > cores;

  std::vector<Nanos> core_free(static_cast<size_t>(cores), 0);
  std::vector<int> core_last(static_cast<size_t>(cores), -1);
  std::vector<Nanos> instance_time(static_cast<size_t>(instances), 0);
  Nanos makespan = 0;
  int next_request = 0;
  // Instances pull requests FIFO; process instance with the earliest clock.
  std::vector<int> remaining(static_cast<size_t>(instances), 0);
  while (true) {
    // Pick the instance that is free earliest.
    int inst = -1;
    for (int i = 0; i < instances; ++i) {
      if (remaining[i] == 0) {
        if (next_request < n_requests) {
          remaining[i] = kSegments;
          ++next_request;
        } else {
          continue;
        }
      }
      if (inst == -1 || instance_time[i] < instance_time[inst]) inst = i;
    }
    if (inst == -1) break;
    // Run one busy segment on the earliest-free core, then stall.
    auto core = std::min_element(core_free.begin(), core_free.end());
    const auto core_idx = static_cast<size_t>(core - core_free.begin());
    Nanos begin = std::max(instance_time[inst], *core);
    // A context switch is charged only when an oversubscribed core picks
    // up a different instance than it last ran.
    if (oversubscribed && core_last[core_idx] != inst) {
      begin += params.context_switch_ns;
    }
    core_last[core_idx] = inst;
    const Nanos busy_end = begin + busy_seg;
    *core = busy_end;
    instance_time[inst] = busy_end + stall_seg;
    if (instance_time[inst] > makespan) makespan = instance_time[inst];
    --remaining[inst];
  }
  return makespan;
}

}  // namespace teleport::tp
