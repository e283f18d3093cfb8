#ifndef TELEPORT_BENCH_BENCH_UTIL_H_
#define TELEPORT_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/query.h"
#include "graph/engine.h"
#include "mr/engine.h"
#include "sim/parallel.h"
#include "sim/tracer.h"
#include "teleport/pushdown.h"

namespace teleport::bench {

/// A complete DBMS deployment on one simulated platform.
struct DbDeployment {
  std::unique_ptr<ddc::MemorySystem> ms;
  std::unique_ptr<db::TpchDatabase> database;
  std::unique_ptr<ddc::ExecutionContext> ctx;
  std::unique_ptr<tp::PushdownRuntime> runtime;  // DDC platforms only
};

/// Deployment knobs shared by every figure: the paper's testbed uses a
/// compute-local cache that is ~2% of the working set (1 GB vs 50 GB),
/// a memory pool with ample capacity, and (by default) one memory-pool
/// core at the compute pool's clock (§7.1).
struct DeployOptions {
  double cache_fraction = 0.02;
  double pool_multiple = 8.0;  ///< memory pool = multiple x working set
  uint64_t pool_bytes_override = 0;
  double memory_pool_clock_ratio = 1.0;
  int memory_pool_cores = 1;
  /// Sequential prefetch depth of the compute cache (0 = off).
  int prefetch_pages = 0;
  /// Multiplies the deployment's virtual address space. >1 leaves headroom
  /// for re-running a workload on the same deployment (each run allocates
  /// fresh scratch buffers), e.g. the PR7 per-tenant legs.
  double space_headroom = 1.0;
};

DbDeployment MakeDb(ddc::Platform platform, double scale_factor,
                    const DeployOptions& opts = {});

struct GraphDeployment {
  std::unique_ptr<ddc::MemorySystem> ms;
  graph::Graph graph;
  std::unique_ptr<ddc::ExecutionContext> ctx;
  std::unique_ptr<tp::PushdownRuntime> runtime;
};

GraphDeployment MakeGraph(ddc::Platform platform, uint64_t vertices,
                          uint64_t degree, const DeployOptions& opts = {});

struct MrDeployment {
  std::unique_ptr<ddc::MemorySystem> ms;
  mr::TextCorpus corpus;
  std::unique_ptr<ddc::ExecutionContext> ctx;
  std::unique_ptr<tp::PushdownRuntime> runtime;
};

MrDeployment MakeMr(ddc::Platform platform, uint64_t corpus_bytes,
                    const DeployOptions& opts = {});

/// Scale knobs for the eight-workload suite (Figs 3 and 13).
struct SuiteConfig {
  double db_scale_factor = 6.0;
  uint64_t graph_vertices = 50'000;
  uint64_t graph_degree = 12;
  uint64_t mr_bytes = 4 << 20;
  DeployOptions deploy;
  bool run_teleport = true;
  /// Host threads for the leg runner: each (workload, platform) leg is an
  /// independent deployment, so RunSuite farms them out via RunLegs.
  /// 0 reads TELEPORT_HOST_THREADS; 1 runs serially. Results are identical
  /// at any value — legs share no simulator state and are merged in leg
  /// order — only wall-clock fields (machine-dependent by design) vary.
  int host_threads = 0;
};

/// One workload measured on up to three platforms. teleport_ns is 0 when
/// the TELEPORT leg was skipped.
struct WorkloadTimes {
  std::string name;
  Nanos local_ns = 0;
  Nanos ddc_ns = 0;
  Nanos teleport_ns = 0;
  /// Host wall-clock of each leg (steady_clock), excluding deployment
  /// generation — the simulator-performance axis, orthogonal to the
  /// virtual times above.
  Nanos local_wall_ns = 0;
  Nanos ddc_wall_ns = 0;
  Nanos teleport_wall_ns = 0;
  /// Metrics::RemoteMemoryBytes() of the DDC / TELEPORT deployments after
  /// the run (the local leg never touches the fabric).
  uint64_t ddc_remote_bytes = 0;
  uint64_t teleport_remote_bytes = 0;
  bool checksums_match = true;
};

/// Runs Q9/Q3/Q6, SSSP/RE/CC, WC/Grep on fresh deployments per platform —
/// the Figure 3 and Figure 13 measurement loop.
std::vector<WorkloadTimes> RunSuite(const SuiteConfig& config);

/// One machine-readable result row of a figure run. Records accumulate as
/// JSON lines (one object per line) so CI can collect the fig10/13/20
/// output into one BENCH_PR5.json file.
struct BenchRecord {
  std::string figure;    ///< e.g. "fig13"
  std::string workload;  ///< e.g. "Q6"
  std::string platform;  ///< ddc::PlatformToString, or "TELEPORT"
  Nanos virtual_ns = 0;
  /// Host wall-clock of the measured region (0 when not measured). Unlike
  /// every other field this is machine-dependent by design: it tracks the
  /// simulator's own speed, not the simulated system's.
  Nanos wall_ns = 0;
  uint64_t remote_memory_bytes = 0;
  std::string trace;  ///< path of the Chrome trace for this row, "" if none
};

/// Host wall-clock stopwatch for BenchRecord::wall_ns.
class WallTimer {
 public:
  WallTimer();
  /// Nanoseconds since construction (or the last Reset()).
  Nanos ElapsedNs() const;
  void Reset();

 private:
  int64_t t0_;
};

/// Deterministic single-line JSON encoding of one record (golden-locked in
/// tests/golden/format_golden_test.cc).
std::string BenchRecordToJson(const BenchRecord& record);

/// Appends `BenchRecordToJson(record)` + '\n' to the file named by the
/// TELEPORT_BENCH_JSON environment variable. No-op when it is unset, so
/// interactive bench runs stay side-effect free. Inside a RunLegs leg the
/// line goes to that leg's private buffer instead and reaches the file when
/// the runner flushes buffers in leg order — so the JSONL a parallel run
/// produces is byte-identical to a serial run of the same legs.
void EmitBenchRecord(const BenchRecord& record);

/// Runs independent figure legs on a sim::LegRunner host-thread pool.
/// Isolation contract: each leg builds (or exclusively owns) its own
/// deployments — MemorySystem, Fabric, contexts, Metrics, Tracer, RNG
/// streams — and communicates results only through its own slot of a
/// caller-provided output vector. EmitBenchRecord output is buffered per
/// leg and flushed in leg index order (nested RunLegs compose: an inner
/// flush lands in the enclosing leg's buffer). `host_threads` 0 reads
/// TELEPORT_HOST_THREADS.
void RunLegs(const std::vector<std::function<void()>>& legs,
             int host_threads = 0);

/// Writes `tracer`'s Chrome trace to $TELEPORT_TRACE_DIR/<stem>.trace.json
/// and returns that path; returns "" (writing nothing) when the variable
/// is unset.
std::string MaybeWriteTrace(const sim::Tracer& tracer,
                            const std::string& stem);

/// Formatting helpers so every bench binary reports the same way.
void PrintBanner(const std::string& title, const std::string& paper_ref);
void PrintFooter();

/// "paper X vs measured Y" line for EXPERIMENTS.md-ready output.
void PrintComparison(const std::string& label, double paper, double measured,
                     const std::string& unit = "x");

}  // namespace teleport::bench

#endif  // TELEPORT_BENCH_BENCH_UTIL_H_
