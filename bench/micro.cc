#include "bench/micro.h"

#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "ddc/memory_system.h"
#include "sim/interleaver.h"
#include "teleport/pushdown.h"

namespace teleport::bench {

namespace {

using ddc::CoherenceMode;
using ddc::ExecutionContext;
using ddc::MemorySystem;
using ddc::VAddr;

/// One simulated application thread: either pure arithmetic (the
/// compute-intensive thread) or random probes over the big region (the
/// memory-intensive thread). Both optionally contend on shared pages.
class UnitTask : public sim::Task {
 public:
  enum class Kind { kCompute, kMemory };

  /// A pushed thread gets a null `ctx`; its PushdownTask binds it to the
  /// session's context once the call has begun.
  UnitTask(Kind kind, ExecutionContext* ctx, const MicroConfig& cfg,
           VAddr region, VAddr shared, uint64_t ops_per_unit, uint64_t seed,
           bool upper_half)
      : kind_(kind),
        ctx_(ctx),
        cfg_(cfg),
        region_(region),
        shared_(shared),
        ops_per_unit_(ops_per_unit),
        rng_(seed),
        upper_half_(upper_half),
        contend_with_reads_(cfg.reader_writer &&
                            kind == Kind::kCompute) {}

  void Bind(ExecutionContext* ctx) { ctx_ = ctx; }

  Nanos clock() const override { return ctx_->now(); }
  bool done() const override { return units_done_ >= cfg_.accesses; }

  void Step() override {
    const uint64_t page_size = ctx_->memory_system().params().page_size;
    for (int i = 0; i < cfg_.batch && !done(); ++i, ++units_done_) {
      if (kind_ == Kind::kCompute) {
        ctx_->ChargeCpu(ops_per_unit_);
      } else {
        const VAddr addr =
            region_ + rng_.Uniform(cfg_.region_bytes / 8) * 8;
        if (cfg_.write_fraction > 0 && rng_.Bernoulli(cfg_.write_fraction)) {
          ctx_->Store<int64_t>(addr, static_cast<int64_t>(units_done_));
        } else {
          (void)ctx_->Load<int64_t>(addr);
        }
      }
      if (cfg_.contention_rate > 0 && rng_.Bernoulli(cfg_.contention_rate)) {
        // Contended access to a shared page; under false sharing each
        // thread stays in its own half of the page (not actually shared
        // data, but the same page). In reader-writer mode the compute
        // thread only reads.
        const uint64_t page = rng_.Uniform(cfg_.shared_pages);
        uint64_t offset = rng_.Uniform(page_size / 2 / 8) * 8;
        if (cfg_.false_sharing && upper_half_) offset += page_size / 2;
        const VAddr addr = shared_ + page * page_size + offset;
        if (contend_with_reads_) {
          (void)ctx_->Load<int64_t>(addr);
        } else {
          ctx_->Store<int64_t>(addr, 1);
        }
      }
    }
  }

 private:
  Kind kind_;
  ExecutionContext* ctx_;
  const MicroConfig& cfg_;
  VAddr region_;
  VAddr shared_;
  uint64_t ops_per_unit_;
  Rng rng_;
  bool upper_half_;
  bool contend_with_reads_;
  uint64_t units_done_ = 0;
};

/// The runtime's flags for each pushdown scenario. The syncmem scenario
/// runs with coherence off after syncing everything by hand (§4.2).
tp::PushdownFlags ScenarioFlags(MicroScenario scenario, VAddr region,
                                uint64_t region_bytes) {
  tp::PushdownFlags flags;
  switch (scenario) {
    case MicroScenario::kPushFullProcess:
      flags.sync = tp::SyncStrategy::kEager;
      break;
    case MicroScenario::kPushPerThread:
      // Evict only the pushed thread's memory (Fig 6).
      flags.sync = tp::SyncStrategy::kEagerRange;
      flags.sync_addr = region;
      flags.sync_len = region_bytes;
      break;
    case MicroScenario::kPushCoherence:
      break;
    case MicroScenario::kPushPso:
      flags.coherence = CoherenceMode::kPso;
      break;
    case MicroScenario::kPushWeakOrdering:
      flags.coherence = CoherenceMode::kWeakOrdering;
      break;
    case MicroScenario::kPushNoCoherenceSyncmem:
      flags.coherence = CoherenceMode::kNone;
      break;
    default:
      TELEPORT_CHECK(false) << "not a pushdown scenario";
  }
  return flags;
}

/// Runs one or more bodies as one pushdown call, stepped beside the
/// compute thread so the two interact through the coherence protocol: the
/// runtime's Begin on the first step, the bodies back to back on the
/// session's context, its End in the step that finishes the last body.
class PushdownTask : public sim::Task {
 public:
  PushdownTask(MemorySystem* ms, ExecutionContext* caller,
               MicroScenario scenario, VAddr region, uint64_t region_bytes,
               std::vector<std::unique_ptr<UnitTask>> bodies)
      : ms_(ms),
        caller_(caller),
        runtime_(ms),
        session_(*caller, ScenarioFlags(scenario, region, region_bytes)),
        syncmem_(scenario == MicroScenario::kPushNoCoherenceSyncmem),
        bodies_(std::move(bodies)) {}

  Nanos clock() const override {
    return started_ && !done() ? bodies_[next_]->clock() : caller_->now();
  }
  bool done() const override { return next_ == bodies_.size(); }

  void Step() override {
    if (!started_) {
      if (syncmem_) ms_->Syncmem(*caller_, 0, ms_->space().used_bytes());
      TELEPORT_CHECK(runtime_.Begin(session_).ok());
      for (auto& body : bodies_) body->Bind(&session_.ctx());
      started_ = true;
      return;
    }
    bodies_[next_]->Step();
    // Bodies share the memory pool's single core: the next one resumes
    // where the previous one left off on the timeline.
    while (!done() && bodies_[next_]->done()) ++next_;
    if (done()) {
      TELEPORT_CHECK(runtime_.End(session_, Status::OK()).ok());
    }
  }

 private:
  MemorySystem* ms_;
  ExecutionContext* caller_;
  tp::PushdownRuntime runtime_;
  tp::PushdownSession session_;
  bool syncmem_;
  std::vector<std::unique_ptr<UnitTask>> bodies_;
  size_t next_ = 0;
  bool started_ = false;
};

}  // namespace

std::string_view MicroScenarioToString(MicroScenario s) {
  switch (s) {
    case MicroScenario::kLocal:
      return "Local";
    case MicroScenario::kBaseDdc:
      return "BaseDDC";
    case MicroScenario::kPushFullProcess:
      return "TELEPORT(per process)";
    case MicroScenario::kPushPerThread:
      return "TELEPORT(per thread)";
    case MicroScenario::kPushCoherence:
      return "TELEPORT(coherence)";
    case MicroScenario::kPushPso:
      return "TELEPORT(PSO)";
    case MicroScenario::kPushWeakOrdering:
      return "TELEPORT(relaxed)";
    case MicroScenario::kPushNoCoherenceSyncmem:
      return "TELEPORT(syncmem)";
  }
  return "Unknown";
}

MicroResult RunMicro(const MicroConfig& cfg, MicroScenario scenario) {
  ddc::DdcConfig dc;
  dc.platform = scenario == MicroScenario::kLocal ? ddc::Platform::kLocal
                                                  : ddc::Platform::kBaseDdc;
  dc.compute_cache_bytes = cfg.cache_bytes;
  dc.memory_pool_bytes = cfg.region_bytes * 4 + (64 << 20);
  MemorySystem ms(dc, sim::CostParams::Default(),
                  cfg.region_bytes + (16 << 20));

  const VAddr region = ms.space().Alloc(cfg.region_bytes, "micro.region");
  const uint64_t page_size = ms.params().page_size;
  const VAddr shared =
      ms.space().Alloc(cfg.shared_pages * page_size, "micro.shared");
  ms.SeedData();

  // Warm phase (untimed context): populate the compute cache with region
  // pages and map the shared pages read-only, the state an application
  // would be in when it decides to push down.
  {
    auto warm = ms.CreateContext(ddc::Pool::kCompute);
    Rng wr(cfg.seed + 1);
    const uint64_t warm_accesses = 4 * cfg.cache_bytes / page_size;
    for (uint64_t i = 0; i < warm_accesses; ++i) {
      const VAddr addr = region + wr.Uniform(cfg.region_bytes / 8) * 8;
      if (cfg.write_fraction > 0 && wr.Bernoulli(cfg.write_fraction)) {
        warm->Store<int64_t>(addr, 1);
      } else {
        (void)warm->Load<int64_t>(addr);
      }
    }
    for (uint64_t p = 0; p < cfg.shared_pages; ++p) {
      (void)warm->Load<int64_t>(shared + p * page_size);
    }
  }

  // Auto-size the compute thread so both threads take equal time locally.
  const uint64_t ops_per_unit =
      cfg.compute_ops > 0
          ? cfg.compute_ops / cfg.accesses
          : static_cast<uint64_t>(
                static_cast<double>(ms.params().dram_random_access_ns) /
                ms.params().cpu_ns_per_op);

  MicroResult result;
  std::vector<std::unique_ptr<ExecutionContext>> ctxs;
  auto new_ctx = [&](ddc::Pool pool) {
    ctxs.push_back(ms.CreateContext(pool));
    return ctxs.back().get();
  };

  sim::Interleaver il;
  std::vector<std::unique_ptr<sim::Task>> tasks;

  switch (scenario) {
    case MicroScenario::kLocal:
    case MicroScenario::kBaseDdc: {
      auto* ca = new_ctx(ddc::Pool::kCompute);
      auto* cb = new_ctx(ddc::Pool::kCompute);
      tasks.push_back(std::make_unique<UnitTask>(
          UnitTask::Kind::kCompute, ca, cfg, region, shared, ops_per_unit,
          cfg.seed + 2, /*upper_half=*/false));
      tasks.push_back(std::make_unique<UnitTask>(
          UnitTask::Kind::kMemory, cb, cfg, region, shared, ops_per_unit,
          cfg.seed + 3, /*upper_half=*/true));
      for (auto& t : tasks) il.Add(t.get());
      break;
    }
    case MicroScenario::kPushFullProcess: {
      // Both threads migrate; they serialize on the memory pool's single
      // core (§4's naive baseline): the session runs body A to completion,
      // then body B from A's finish time.
      std::vector<std::unique_ptr<UnitTask>> bodies;
      bodies.push_back(std::make_unique<UnitTask>(
          UnitTask::Kind::kCompute, nullptr, cfg, region, shared,
          ops_per_unit, cfg.seed + 2, false));
      bodies.push_back(std::make_unique<UnitTask>(
          UnitTask::Kind::kMemory, nullptr, cfg, region, shared, ops_per_unit,
          cfg.seed + 3, true));
      tasks.push_back(std::make_unique<PushdownTask>(
          &ms, new_ctx(ddc::Pool::kCompute), scenario, region,
          cfg.region_bytes, std::move(bodies)));
      il.Add(tasks.back().get());
      break;
    }
    default: {
      // Compute thread stays; memory thread is pushed down.
      auto* ca = new_ctx(ddc::Pool::kCompute);
      auto* caller = new_ctx(ddc::Pool::kCompute);
      tasks.push_back(std::make_unique<UnitTask>(
          UnitTask::Kind::kCompute, ca, cfg, region, shared, ops_per_unit,
          cfg.seed + 2, false));
      il.Add(tasks.back().get());
      std::vector<std::unique_ptr<UnitTask>> bodies;
      bodies.push_back(std::make_unique<UnitTask>(
          UnitTask::Kind::kMemory, nullptr, cfg, region, shared, ops_per_unit,
          cfg.seed + 3, true));
      tasks.push_back(std::make_unique<PushdownTask>(
          &ms, caller, scenario, region, cfg.region_bytes, std::move(bodies)));
      il.Add(tasks.back().get());
      break;
    }
  }

  result.time_ns = il.Run();

  // The syncmem variant pays its manual post-synchronization once at the
  // end (flush what the compute thread dirtied meanwhile).
  if (scenario == MicroScenario::kPushNoCoherenceSyncmem) {
    ms.Syncmem(*ctxs.front(), shared, cfg.shared_pages * page_size);
    if (ctxs.front()->now() > result.time_ns) {
      result.time_ns = ctxs.front()->now();
    }
  }

  for (const auto& ctx : ctxs) {
    result.coherence_messages += ctx->metrics().coherence_messages;
    result.net_messages += ctx->metrics().net_messages;
    result.remote_bytes += ctx->metrics().RemoteMemoryBytes();
  }
  return result;
}

}  // namespace teleport::bench
