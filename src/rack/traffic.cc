#include "rack/traffic.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace teleport::rack {

uint64_t RunKernel(ddc::ExecutionContext& c, WorkloadKind kind,
                   ddc::VAddr slice, uint64_t slice_bytes, int ops,
                   uint64_t kernel_seed) {
  const uint64_t words = slice_bytes / 8;
  TELEPORT_CHECK(words > 0);
  uint64_t digest = 0;
  uint64_t x = Mix64(kernel_seed);
  switch (kind) {
    case WorkloadKind::kDb: {
      // Selection + aggregation: a sequential 64-byte-stride scan from a
      // seeded page-aligned start, wrapping inside the slice.
      const uint64_t start = (x % words) * 8;
      for (int op = 0; op < ops; ++op) {
        const uint64_t off = (start + static_cast<uint64_t>(op) * 64) %
                             (words * 8);
        const ddc::VAddr a = slice + (off & ~uint64_t{7});
        digest += static_cast<uint64_t>(c.Load<int64_t>(a)) +
                  static_cast<uint64_t>(op);
        c.ChargeCpu(1);
      }
      break;
    }
    case WorkloadKind::kGraph: {
      // Gather: dependent pointer chase — each loaded value perturbs the
      // next offset, like following CSR targets.
      for (int op = 0; op < ops; ++op) {
        const uint64_t off = (x % words) * 8;
        const uint64_t v = static_cast<uint64_t>(c.Load<int64_t>(slice + off));
        digest += v + off;
        x = Mix64(x ^ v);
        c.ChargeCpu(2);
      }
      break;
    }
    case WorkloadKind::kMr: {
      // Map-shuffle: hashed read-modify-write scatter into the slice, the
      // random-access pattern of §5.3.
      for (int op = 0; op < ops; ++op) {
        x = Mix64(x);
        const uint64_t off = (x % words) * 8;
        const int64_t v = c.Load<int64_t>(slice + off);
        c.Store<int64_t>(slice + off,
                         v + static_cast<int64_t>(op) + 1);
        digest += off + static_cast<uint64_t>(v);
        c.ChargeCpu(3);
      }
      break;
    }
    case WorkloadKind::kOltp: {
      // Index probe: a root-to-leaf descent over a synthetic radix laid
      // across the slice (one dependent read per level, like src/oltp's
      // inner-node walk), then an OCC-style version-bump RMW on the probed
      // record — a pointer chase that ends on one hot 8-byte write.
      const uint64_t fanout = std::max<uint64_t>(2, words / 64);
      for (int op = 0; op < ops; ++op) {
        x = Mix64(x);
        const uint64_t key = x % words;
        uint64_t cursor = 0;
        for (uint64_t span = words; span > 1; span /= fanout) {
          const uint64_t off = ((cursor + key % span) % words) * 8;
          const uint64_t v = static_cast<uint64_t>(c.Load<int64_t>(slice + off));
          digest += v + off;
          cursor = Mix64(cursor ^ (key % span)) % words;
          c.ChargeCpu(2);
        }
        const uint64_t roff = (Mix64(key) % words) * 8;
        const int64_t rv = c.Load<int64_t>(slice + roff);
        c.Store<int64_t>(slice + roff, rv + 1);
        digest += static_cast<uint64_t>(rv) + roff;
        c.ChargeCpu(2);
      }
      break;
    }
  }
  return digest;
}

std::string_view WorkloadKindToString(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kDb:
      return "db";
    case WorkloadKind::kGraph:
      return "graph";
    case WorkloadKind::kMr:
      return "mr";
    case WorkloadKind::kOltp:
      return "oltp";
  }
  return "unknown";
}

TrafficResult RunOpenLoop(ddc::MemorySystem& ms,
                          tp::PushdownRuntime& runtime,
                          const TrafficConfig& cfg) {
  TELEPORT_CHECK(cfg.tenants >= 1 && cfg.sessions >= 0);
  TELEPORT_CHECK(cfg.slice_pages >= 1 && cfg.ops_per_session >= 1);
  TELEPORT_CHECK(cfg.workload_families >= 1 && cfg.workload_families <= 4);
  const int nodes = ms.compute_nodes();
  const uint64_t page = ms.space().page_size();

  // One private slice per tenant; its first page's shard is the tenant's
  // pushdown home (cross-shard touches still fault shard-by-shard).
  std::vector<ddc::VAddr> slices;
  std::vector<int> homes;
  slices.reserve(static_cast<size_t>(cfg.tenants));
  homes.reserve(static_cast<size_t>(cfg.tenants));
  for (int t = 0; t < cfg.tenants; ++t) {
    if (cfg.shared_slice && t > 0) {
      // Contended mode: everyone fights over tenant 0's slice.
      slices.push_back(slices[0]);
      homes.push_back(homes[0]);
      continue;
    }
    const ddc::VAddr slice = ms.space().Alloc(
        cfg.slice_pages * page, "rack.slice." + std::to_string(t));
    slices.push_back(slice);
    homes.push_back(ms.ShardOf(ms.space().PageOf(slice)));
  }

  // The open-loop schedule: monotone arrivals with seeded jittered gaps,
  // drawn up front in session order so the stream is independent of how
  // service unfolds.
  Rng arrival_rng(Mix64(cfg.seed) ^ 0x0a11ULL);
  std::vector<Nanos> arrivals(static_cast<size_t>(cfg.sessions), 0);
  Nanos at = 0;
  for (int i = 0; i < cfg.sessions; ++i) {
    arrivals[static_cast<size_t>(i)] = at;
    double gap = static_cast<double>(cfg.mean_interarrival_ns);
    if (cfg.jitter_frac > 0.0) {
      gap *= 1.0 + cfg.jitter_frac * (2.0 * arrival_rng.NextDouble() - 1.0);
    }
    at += std::max<Nanos>(0, static_cast<Nanos>(gap));
  }

  TrafficResult r;
  r.scopes = sim::TenantScopes(cfg.tenants);
  std::priority_queue<Nanos, std::vector<Nanos>, std::greater<>> inflight;
  Nanos last_end = 0;

  for (int i = 0; i < cfg.sessions; ++i) {
    const int tenant = i % cfg.tenants;
    const int node = tenant % nodes;
    const WorkloadKind kind =
        static_cast<WorkloadKind>(tenant % cfg.workload_families);
    Nanos start = arrivals[static_cast<size_t>(i)];
    while (!inflight.empty() && inflight.top() <= start) inflight.pop();
    if (cfg.max_concurrent > 0 &&
        static_cast<int>(inflight.size()) >= cfg.max_concurrent) {
      // Admission control: hold the arrival until a slot frees.
      ++r.deferred;
      while (static_cast<int>(inflight.size()) >= cfg.max_concurrent) {
        start = std::max(start, inflight.top());
        inflight.pop();
      }
    }

    auto ctx = ms.CreateContext(ddc::Pool::kCompute, node, tenant);
    ctx->clock().Reset(start);
    const sim::Metrics before = ctx->metrics();

    // The client inspects its slice head before shipping the kernel, so
    // every session faults at least one page into its own node's cache and
    // the pushdown then migrates it pool-side (the TELEPORT handoff).
    (void)ctx->Load<int64_t>(slices[static_cast<size_t>(tenant)]);

    tp::PushdownFlags flags;
    flags.home_shard = homes[static_cast<size_t>(tenant)];
    uint64_t digest = 0;
    const ddc::VAddr slice = slices[static_cast<size_t>(tenant)];
    const uint64_t slice_bytes = cfg.slice_pages * page;
    const uint64_t kernel_seed =
        Mix64(cfg.seed ^ (static_cast<uint64_t>(i) << 1));
    const Status st = runtime.Call(
        *ctx,
        [&](ddc::ExecutionContext& mem_ctx) {
          digest = RunKernel(mem_ctx, kind, slice, slice_bytes,
                             cfg.ops_per_session, kernel_seed);
          return Status::OK();
        },
        flags);
    if (!st.ok()) {
      ++r.failed;
      digest = Mix64(static_cast<uint64_t>(st.code()));
    }
    const Nanos end = ctx->now();
    inflight.push(end);
    last_end = std::max(last_end, end);
    ++r.completed;
    // Commutative fold: the digest set, not the completion order, defines
    // the checksum — bit-identical across schedules by construction.
    r.checksum += Mix64(digest ^ (static_cast<uint64_t>(i) * 0x9e37ULL));
    r.scopes.Record(tenant, ctx->metrics().Diff(before), end - start);
  }

  r.makespan_ns = last_end;
  r.completion_fairness = r.scopes.CompletionFairness();
  r.remote_bytes_fairness = r.scopes.RemoteBytesFairness();
  const Histogram merged = r.scopes.MergedLatency();
  r.p50_latency_ns = merged.Percentile(50.0);
  r.p99_latency_ns = merged.Percentile(99.0);
  return r;
}

}  // namespace teleport::rack
