#include "bench/bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace teleport::bench {

namespace {

ddc::DdcConfig BaseConfig(ddc::Platform platform, uint64_t working_set,
                          const DeployOptions& opts) {
  ddc::DdcConfig dc;
  dc.platform = platform;
  dc.compute_cache_bytes = std::max<uint64_t>(
      16 * 4096, static_cast<uint64_t>(opts.cache_fraction *
                                       static_cast<double>(working_set)));
  dc.memory_pool_bytes =
      opts.pool_bytes_override != 0
          ? opts.pool_bytes_override
          : static_cast<uint64_t>(opts.pool_multiple *
                                  static_cast<double>(working_set));
  dc.memory_pool_clock_ratio = opts.memory_pool_clock_ratio;
  dc.prefetch_pages = opts.prefetch_pages;
  return dc;
}

}  // namespace

DbDeployment MakeDb(ddc::Platform platform, double scale_factor,
                    const DeployOptions& opts) {
  DbDeployment d;
  db::TpchConfig cfg;
  cfg.scale_factor = scale_factor;
  const uint64_t bytes = db::EstimateTpchBytes(cfg);
  // Queries allocate sizable intermediates (selection vectors, hash
  // tables); give the address space ample headroom.
  d.ms = std::make_unique<ddc::MemorySystem>(
      BaseConfig(platform, bytes, opts), sim::CostParams::Default(),
      static_cast<uint64_t>(bytes * 12 * opts.space_headroom));
  d.database = db::GenerateTpch(d.ms.get(), cfg);
  d.ctx = d.ms->CreateContext(ddc::Pool::kCompute);
  if (platform == ddc::Platform::kBaseDdc) {
    d.runtime = std::make_unique<tp::PushdownRuntime>(
        d.ms.get(), opts.memory_pool_cores);
  }
  return d;
}

GraphDeployment MakeGraph(ddc::Platform platform, uint64_t vertices,
                          uint64_t degree, const DeployOptions& opts) {
  GraphDeployment d;
  graph::GraphConfig gc;
  gc.vertices = vertices;
  gc.avg_degree = degree;
  const uint64_t bytes = graph::EstimateGraphBytes(gc);
  d.ms = std::make_unique<ddc::MemorySystem>(
      BaseConfig(platform, bytes, opts), sim::CostParams::Default(),
      static_cast<uint64_t>(bytes * 6 * opts.space_headroom));
  d.graph = graph::GenerateGraph(d.ms.get(), gc);
  d.ctx = d.ms->CreateContext(ddc::Pool::kCompute);
  if (platform == ddc::Platform::kBaseDdc) {
    d.runtime = std::make_unique<tp::PushdownRuntime>(
        d.ms.get(), opts.memory_pool_cores);
  }
  return d;
}

MrDeployment MakeMr(ddc::Platform platform, uint64_t corpus_bytes,
                    const DeployOptions& opts) {
  MrDeployment d;
  mr::TextConfig tc;
  tc.bytes = corpus_bytes;
  // The MapReduce working set is dominated by the shuffle / reduce
  // buffers, several times the input volume; size the cache off that.
  d.ms = std::make_unique<ddc::MemorySystem>(
      BaseConfig(platform, corpus_bytes * 8, opts), sim::CostParams::Default(),
      static_cast<uint64_t>(corpus_bytes * 40 * opts.space_headroom));
  d.corpus = mr::GenerateText(d.ms.get(), tc);
  d.ctx = d.ms->CreateContext(ddc::Pool::kCompute);
  if (platform == ddc::Platform::kBaseDdc) {
    d.runtime = std::make_unique<tp::PushdownRuntime>(
        d.ms.get(), opts.memory_pool_cores);
  }
  return d;
}

std::vector<WorkloadTimes> RunSuite(const SuiteConfig& config) {
  // Every (workload, platform) pair is an independent leg on its own
  // deployment — the suite is embarrassingly parallel, which is exactly
  // what Tier A of the host-parallel engine exploits. Legs record into
  // index-addressed slots; the merge below runs after RunLegs returns, so
  // the output (and the cross-platform checksum comparison) is identical
  // at any thread count.
  struct DbCase {
    const char* label;
    const char* query;
    db::QueryResult (*fn)(ddc::ExecutionContext&, const db::TpchDatabase&,
                          const db::QueryOptions&);
  };
  const DbCase db_cases[] = {
      {"Q9", "q9", &db::RunQ9},
      {"Q3", "q3", &db::RunQ3},
      {"Q6", "q6", &db::RunQ6},
  };
  struct GraphCase {
    const char* label;
    graph::GasResult (*fn)(ddc::ExecutionContext&, const graph::Graph&,
                           const graph::GasOptions&);
  };
  const GraphCase graph_cases[] = {
      {"SSSP", &graph::RunSssp},
      {"RE", &graph::RunReachability},
      {"CC", &graph::RunConnectedComponents},
  };
  struct MrCase {
    const char* label;
    bool grep;
  };
  const MrCase mr_cases[] = {{"WC", false}, {"Grep", true}};

  struct LegResult {
    Nanos virtual_ns = 0;
    Nanos wall_ns = 0;
    uint64_t remote_bytes = 0;
    int64_t checksum = 0;
  };
  enum { kLocal = 0, kDdc = 1, kTeleport = 2 };
  constexpr int kWorkloads = 8;  // Q9 Q3 Q6 | SSSP RE CC | WC Grep
  std::vector<std::array<LegResult, 3>> res(kWorkloads);
  std::vector<std::function<void()>> legs;

  auto platform_of = [](int p) {
    return p == kLocal ? ddc::Platform::kLocal : ddc::Platform::kBaseDdc;
  };
  const int num_platforms = config.run_teleport ? 3 : 2;
  for (int w = 0; w < kWorkloads; ++w) {
    for (int p = 0; p < num_platforms; ++p) {
      legs.push_back([&config, &db_cases, &graph_cases, &mr_cases, &res,
                      platform_of, w, p] {
        LegResult& r = res[static_cast<size_t>(w)][static_cast<size_t>(p)];
        if (w < 3) {
          const DbCase& c = db_cases[w];
          auto d = MakeDb(platform_of(p), config.db_scale_factor,
                          config.deploy);
          db::QueryOptions opts;
          if (p == kTeleport) {
            opts.runtime = d.runtime.get();
            opts.push_ops = db::DefaultTeleportOps(c.query);
          }
          WallTimer wall;
          const db::QueryResult q = c.fn(*d.ctx, *d.database, opts);
          r.virtual_ns = q.total_ns;
          r.wall_ns = wall.ElapsedNs();
          r.checksum = q.checksum;
          if (p != kLocal) r.remote_bytes = d.ctx->metrics().RemoteMemoryBytes();
        } else if (w < 6) {
          const GraphCase& c = graph_cases[w - 3];
          auto d = MakeGraph(platform_of(p), config.graph_vertices,
                             config.graph_degree, config.deploy);
          graph::GasOptions opts;
          if (p == kTeleport) {
            opts.runtime = d.runtime.get();
            opts.push_phases = graph::DefaultTeleportPhases();
          }
          WallTimer wall;
          const graph::GasResult q = c.fn(*d.ctx, d.graph, opts);
          r.virtual_ns = q.total_ns;
          r.wall_ns = wall.ElapsedNs();
          r.checksum = q.checksum;
          if (p != kLocal) r.remote_bytes = d.ctx->metrics().RemoteMemoryBytes();
        } else {
          const MrCase& c = mr_cases[w - 6];
          auto d = MakeMr(platform_of(p), config.mr_bytes, config.deploy);
          mr::MrOptions opts;
          if (p == kTeleport) {
            opts.runtime = d.runtime.get();
            opts.push_phases = mr::DefaultTeleportPhases(c.grep);
          }
          WallTimer wall;
          const mr::MrResult q = c.grep
                                     ? RunGrep(*d.ctx, d.corpus, "wab", opts)
                                     : RunWordCount(*d.ctx, d.corpus, opts);
          r.virtual_ns = q.total_ns;
          r.wall_ns = wall.ElapsedNs();
          r.checksum = q.checksum;
          if (p != kLocal) r.remote_bytes = d.ctx->metrics().RemoteMemoryBytes();
        }
      });
    }
  }
  RunLegs(legs, config.host_threads);

  const char* names[kWorkloads] = {"Q9", "Q3",   "Q6", "SSSP",
                                   "RE", "CC",   "WC", "Grep"};
  std::vector<WorkloadTimes> out;
  out.reserve(kWorkloads);
  for (int w = 0; w < kWorkloads; ++w) {
    const auto& r = res[static_cast<size_t>(w)];
    WorkloadTimes t;
    t.name = names[w];
    t.local_ns = r[kLocal].virtual_ns;
    t.local_wall_ns = r[kLocal].wall_ns;
    t.ddc_ns = r[kDdc].virtual_ns;
    t.ddc_wall_ns = r[kDdc].wall_ns;
    t.ddc_remote_bytes = r[kDdc].remote_bytes;
    t.checksums_match = r[kLocal].checksum == r[kDdc].checksum;
    if (config.run_teleport) {
      t.teleport_ns = r[kTeleport].virtual_ns;
      t.teleport_wall_ns = r[kTeleport].wall_ns;
      t.teleport_remote_bytes = r[kTeleport].remote_bytes;
      t.checksums_match =
          t.checksums_match && r[kLocal].checksum == r[kTeleport].checksum;
    }
    out.push_back(t);
  }
  return out;
}

namespace {

void AppendJsonField(std::string& out, const char* key,
                     const std::string& value, bool last = false) {
  out += '"';
  out += key;
  out += "\":\"";
  // Record fields are paths and identifiers; escape the two characters
  // that could break the JSON framing.
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += last ? "\"" : "\",";
}

}  // namespace

std::string BenchRecordToJson(const BenchRecord& record) {
  std::string out = "{";
  AppendJsonField(out, "figure", record.figure);
  AppendJsonField(out, "workload", record.workload);
  AppendJsonField(out, "platform", record.platform);
  out += "\"virtual_ns\":" + std::to_string(record.virtual_ns) + ",";
  out += "\"wall_ns\":" + std::to_string(record.wall_ns) + ",";
  out += "\"remote_memory_bytes\":" +
         std::to_string(record.remote_memory_bytes) + ",";
  AppendJsonField(out, "trace", record.trace, /*last=*/true);
  out += "}";
  return out;
}

namespace {

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WallTimer::WallTimer() : t0_(WallNowNs()) {}

Nanos WallTimer::ElapsedNs() const {
  return static_cast<Nanos>(WallNowNs() - t0_);
}

void WallTimer::Reset() { t0_ = WallNowNs(); }

namespace {

/// Per-thread redirect for EmitBenchRecord: while a RunLegs leg runs, its
/// JSONL lines accumulate here instead of hitting the output file, so legs
/// finishing out of order cannot interleave their records. nullptr (the
/// default, and always the state outside RunLegs) means "write through".
thread_local std::string* t_bench_sink = nullptr;

/// Appends raw, already-framed JSONL text: to the enclosing leg's buffer
/// when one is active (nested RunLegs), else to $TELEPORT_BENCH_JSON.
void AppendBenchOutput(const std::string& text) {
  if (text.empty()) return;
  if (t_bench_sink != nullptr) {
    *t_bench_sink += text;
    return;
  }
  const char* path = std::getenv("TELEPORT_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

}  // namespace

void EmitBenchRecord(const BenchRecord& record) {
  AppendBenchOutput(BenchRecordToJson(record) + "\n");
}

void RunLegs(const std::vector<std::function<void()>>& legs,
             int host_threads) {
  if (host_threads <= 0) host_threads = sim::HostThreadsFromEnv();
  std::vector<std::string> buffers(legs.size());
  sim::LegRunner(host_threads).Run(legs.size(), [&legs, &buffers](size_t i) {
    std::string* prev = t_bench_sink;  // the calling thread may be a leg
    t_bench_sink = &buffers[i];        // of an enclosing RunLegs
    legs[i]();
    t_bench_sink = prev;
  });
  for (const std::string& buf : buffers) AppendBenchOutput(buf);
}

std::string MaybeWriteTrace(const sim::Tracer& tracer,
                            const std::string& stem) {
  const char* dir = std::getenv("TELEPORT_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return "";
  const std::string path = std::string(dir) + "/" + stem + ".trace.json";
  if (!tracer.WriteChromeJson(path)) return "";
  return path;
}

void PrintBanner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

void PrintFooter() {
  std::printf("--------------------------------------------------------------\n\n");
}

void PrintComparison(const std::string& label, double paper, double measured,
                     const std::string& unit) {
  std::printf("  %-34s paper %7.1f%s   measured %7.1f%s\n", label.c_str(),
              paper, unit.c_str(), measured, unit.c_str());
}

}  // namespace teleport::bench
