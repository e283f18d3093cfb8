#ifndef TELEPORT_TELEPORT_WRAP_H_
#define TELEPORT_TELEPORT_WRAP_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "sim/tenant_scopes.h"
#include "sim/tracer.h"
#include "teleport/pushdown.h"

namespace teleport::tp {

/// What every wrapped engine's options hold (db::QueryOptions,
/// graph::GasOptions and mr::MrOptions derive from it). Without `runtime`
/// every call runs on the caller's context.
struct WrapOptions {
  PushdownRuntime* runtime = nullptr;
  /// Flags of every pushed call.
  PushdownFlags flags;
  /// Multi-tenant attribution: when set, the whole run's context-metrics
  /// diff and end-to-end latency are recorded into the calling context's
  /// tenant scope.
  sim::TenantScopes* scopes = nullptr;
};

/// The cost one wrapped call put on its caller: wall time on the caller's
/// virtual clock and the growth of the metrics the engines profile.
struct CallCost {
  Nanos time_ns = 0;
  uint64_t remote_bytes = 0;
  uint64_t remote_pages = 0;  ///< pages moved between pools
  uint64_t cpu_ops = 0;       ///< simple operations charged by the kernel
};

/// Per-phase aggregate over every call of one phase of a phased engine
/// (graph's GAS phases, MapReduce's phases): wall time and remote traffic,
/// the Fig 10 breakdown.
template <typename P>
struct PhaseProfile {
  P phase{};
  Nanos time_ns = 0;
  uint64_t remote_bytes = 0;
  uint64_t invocations = 0;
  bool pushed = false;

  void Add(const CallCost& c) {
    time_ns += c.time_ns;
    remote_bytes += c.remote_bytes;
    ++invocations;
  }
};

/// The per-phase profiles of a phased engine's result, one per phase.
template <typename P>
struct PhasedResult {
  std::vector<PhaseProfile<P>> phases;

  const PhaseProfile<P>& Profile(P p) const {
    for (const PhaseProfile<P>& prof : phases) {
      if (prof.phase == p) return prof;
    }
    TELEPORT_CHECK(false) << "missing phase profile";
    __builtin_unreachable();
  }
};

/// One engine run whose calls are selectively wrapped: the paper's
/// "selective wrapping of existing function calls" (§1). The engine hands
/// each operator or phase body to Call, which runs it on the caller's
/// context or pushes it down, so the same kernel code serves both paths.
/// The run starts at construction and ends at Finish.
class WrappedRun {
 public:
  /// `engine` ("db", "graph", "mr") is the calls' trace category.
  WrappedRun(ddc::ExecutionContext& ctx, const WrapOptions& opts,
             std::string_view engine)
      : ctx_(ctx),
        opts_(opts),
        engine_(engine),
        start_ns_(ctx.now()),
        start_metrics_(ctx.metrics()) {}

  /// Runs `body(c)` as the call `name`, traced on the compute track: on the
  /// caller's context, or with `push` inside PushdownRuntime::Call with the
  /// options' flags. A failed pushdown aborts the run, naming the engine
  /// and the call. Returns the cost the call put on the caller.
  template <typename Fn>
  CallCost Call(std::string_view name, bool push, Fn&& body) {
    TELEPORT_TRACE(ctx_.memory_system().tracer(), ctx_.clock(), engine_,
                   name, sim::kTrackCompute);
    const CallCost before = Now();
    if (push) {
      const Status st = opts_.runtime->Call(
          ctx_,
          [&](ddc::ExecutionContext& mem_ctx) {
            body(mem_ctx);
            return Status::OK();
          },
          opts_.flags);
      TELEPORT_CHECK(st.ok()) << "pushdown of " << engine_ << " " << name
                              << " failed: " << st;
    } else {
      body(ctx_);
    }
    const CallCost after = Now();
    return {after.time_ns - before.time_ns,
            after.remote_bytes - before.remote_bytes,
            after.remote_pages - before.remote_pages,
            after.cpu_ops - before.cpu_ops};
  }

  /// Ends the run: returns the caller's virtual time since the start and,
  /// with `scopes` set, records it and the caller's metrics growth in the
  /// caller's tenant.
  Nanos Finish() {
    const Nanos total_ns = ctx_.now() - start_ns_;
    if (opts_.scopes != nullptr) {
      opts_.scopes->Record(ctx_.tenant(), ctx_.metrics().Diff(start_metrics_),
                           total_ns);
    }
    return total_ns;
  }

 private:
  /// The caller's clock and profiled counters, as running totals.
  CallCost Now() const {
    const sim::Metrics& m = ctx_.metrics();
    return {ctx_.now(), m.RemoteMemoryBytes(),
            m.cache_misses + m.dirty_writebacks, m.cpu_ops};
  }

  ddc::ExecutionContext& ctx_;
  const WrapOptions& opts_;
  std::string_view engine_;
  Nanos start_ns_;
  sim::Metrics start_metrics_;
};

}  // namespace teleport::tp

#endif  // TELEPORT_TELEPORT_WRAP_H_
