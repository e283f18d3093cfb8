#include "bench/micro.h"

#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/rle.h"
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

/// Wraps one or more body tasks in a pushdown call driven step-by-step, so
/// a concurrent compute-pool thread can interact with the pushed function
/// through the coherence protocol. Mirrors PushdownRuntime's cost sequence.
class PushdownTask : public sim::Task {
 public:
  PushdownTask(MemorySystem* ms, ExecutionContext* caller,
               std::vector<sim::Task*> bodies, MicroScenario scenario,
               VAddr region, uint64_t region_bytes)
      : ms_(ms),
        caller_(caller),
        bodies_(std::move(bodies)),
        scenario_(scenario),
        region_(region),
        region_bytes_(region_bytes) {}

  Nanos clock() const override {
    if (!started_) return caller_->now();
    if (finished_) return caller_->now();
    return CurrentBody()->clock();
  }
  bool done() const override { return finished_; }

  void Step() override {
    if (!started_) {
      Setup();
      started_ = true;
      return;
    }
    sim::Task* body = CurrentBody();
    if (!body->done()) body->Step();
    while (body_index_ < bodies_.size() && bodies_[body_index_]->done()) {
      const size_t finished = body_index_;
      ++body_index_;
      // Bodies share the memory pool's single core: the next one resumes
      // where the previous one left off on the timeline.
      if (body_index_ < bodies_.size() && finished < mem_ctxs_.size() &&
          body_index_ < mem_ctxs_.size()) {
        mem_ctxs_[body_index_]->clock().AdvanceTo(
            mem_ctxs_[finished]->now());
      }
    }
    if (body_index_ >= bodies_.size()) Teardown();
  }

  /// The memory-side contexts the bodies run in must have their clocks
  /// aligned to the post-setup time; Setup() does that through this hook.
  void AddMemContext(ExecutionContext* mem_ctx) {
    mem_ctxs_.push_back(mem_ctx);
  }

 private:
  sim::Task* CurrentBody() const {
    return bodies_[body_index_ < bodies_.size() ? body_index_
                                                : bodies_.size() - 1];
  }

  void Setup() {
    const auto& params = ms_->params();
    uint64_t req_bytes = tp::kPushdownRequestBytes;
    uint64_t resident = 0;
    CoherenceMode mode = CoherenceMode::kNone;
    switch (scenario_) {
      case MicroScenario::kPushCoherence:
      case MicroScenario::kPushPso:
      case MicroScenario::kPushWeakOrdering: {
        const auto pages = ms_->ResidentPages();
        resident = pages.size();
        caller_->AdvanceTime(static_cast<Nanos>(resident) *
                             params.resident_scan_ns);
        req_bytes += RleSizeBytes(RleEncode(pages));
        mode = scenario_ == MicroScenario::kPushCoherence
                   ? CoherenceMode::kMesi
                   : (scenario_ == MicroScenario::kPushPso
                          ? CoherenceMode::kPso
                          : CoherenceMode::kWeakOrdering);
        break;
      }
      case MicroScenario::kPushNoCoherenceSyncmem:
        // Manual pre-synchronization of everything dirty (§4.2).
        ms_->Syncmem(*caller_, 0, ms_->space().used_bytes());
        break;
      case MicroScenario::kPushPerThread:
        // Evict only the pushed thread's memory (Fig 6).
        ms_->FlushRange(*caller_, region_, region_bytes_, /*drop=*/true);
        break;
      case MicroScenario::kPushFullProcess:
        flushed_ = ms_->FlushAllCache(*caller_, /*drop=*/true);
        break;
      default:
        TELEPORT_CHECK(false) << "not a pushdown scenario";
    }
    const Nanos arrive =
        ms_->fabric().SendToMemory(net::Link{}, caller_->now(), req_bytes);
    caller_->metrics().net_messages += 1;
    caller_->metrics().net_bytes += req_bytes;
    ms_->BeginPushdownSession(mode);
    const Nanos setup_ns = params.context_fixed_ns +
                           static_cast<Nanos>(resident) * params.pte_clone_ns;
    for (ExecutionContext* mc : mem_ctxs_) {
      mc->clock().Reset(arrive + setup_ns);
    }
  }

  void Teardown() {
    const auto& params = ms_->params();
    ms_->EndPushdownSession();
    Nanos end = 0;
    for (ExecutionContext* mc : mem_ctxs_) {
      if (mc->now() > end) end = mc->now();
    }
    const Nanos resp = ms_->fabric().SendToCompute(
        net::Link{}, end + params.context_fixed_ns / 4,
        tp::kPushdownResponseBytes);
    caller_->metrics().net_messages += 1;
    caller_->metrics().net_bytes += tp::kPushdownResponseBytes;
    caller_->clock().AdvanceTo(resp);
    if (scenario_ == MicroScenario::kPushFullProcess) {
      ms_->BulkRefetch(*caller_, flushed_);
    }
    caller_->metrics().pushdown_calls += 1;
    finished_ = true;
  }

  MemorySystem* ms_;
  ExecutionContext* caller_;
  std::vector<sim::Task*> bodies_;
  size_t body_index_ = 0;
  MicroScenario scenario_;
  VAddr region_;
  uint64_t region_bytes_;
  uint64_t flushed_ = 0;
  bool started_ = false;
  bool finished_ = false;
  std::vector<ExecutionContext*> mem_ctxs_;
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
      break;
    }
    case MicroScenario::kPushFullProcess: {
      // Both threads migrate; they serialize on the memory pool's single
      // core (§4's naive baseline): the PushdownTask runs body A to
      // completion, then body B resuming at A's finish time.
      auto* caller = new_ctx(ddc::Pool::kCompute);
      auto* ma = new_ctx(ddc::Pool::kMemory);
      auto* mb = new_ctx(ddc::Pool::kMemory);
      auto body_a = std::make_unique<UnitTask>(
          UnitTask::Kind::kCompute, ma, cfg, region, shared, ops_per_unit,
          cfg.seed + 2, false);
      auto body_b = std::make_unique<UnitTask>(
          UnitTask::Kind::kMemory, mb, cfg, region, shared, ops_per_unit,
          cfg.seed + 3, true);
      auto push = std::make_unique<PushdownTask>(
          &ms, caller, std::vector<sim::Task*>{body_a.get(), body_b.get()},
          scenario, region, cfg.region_bytes);
      push->AddMemContext(ma);
      push->AddMemContext(mb);
      tasks.push_back(std::move(body_a));  // owned here; driven via push
      tasks.push_back(std::move(body_b));
      il.Add(push.get());
      tasks.push_back(std::move(push));
      break;
    }
    default: {
      // Compute thread stays; memory thread is pushed down.
      auto* ca = new_ctx(ddc::Pool::kCompute);
      auto* caller = new_ctx(ddc::Pool::kCompute);
      auto* mb = new_ctx(ddc::Pool::kMemory);
      tasks.push_back(std::make_unique<UnitTask>(
          UnitTask::Kind::kCompute, ca, cfg, region, shared, ops_per_unit,
          cfg.seed + 2, false));
      il.Add(tasks.back().get());
      auto body = std::make_unique<UnitTask>(
          UnitTask::Kind::kMemory, mb, cfg, region, shared, ops_per_unit,
          cfg.seed + 3, true);
      auto push = std::make_unique<PushdownTask>(
          &ms, caller, std::vector<sim::Task*>{body.get()}, scenario, region,
          cfg.region_bytes);
      push->AddMemContext(mb);
      il.Add(push.get());
      tasks.push_back(std::move(body));
      tasks.push_back(std::move(push));
      break;
    }
  }

  if (scenario == MicroScenario::kLocal ||
      scenario == MicroScenario::kBaseDdc) {
    for (auto& t : tasks) il.Add(t.get());
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
