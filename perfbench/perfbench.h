// Shared pieces of the repo benchmark: run parameters, the in-memory span
// log the traced run records into, the correctness-check tally, and the
// result of one repetition of a workload.
//
// The benchmark drives the simulator only through the public headers of
// src/, so edits to the figure harnesses under bench/ never change what it
// measures.

#ifndef TELEPORT_PERFBENCH_PERFBENCH_H_
#define TELEPORT_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/fabric.h"
#include "sim/metrics.h"
#include "teleport/pushdown.h"

namespace perfbench {

/// Host clocks. Wall time is steady_clock; thread CPU time is
/// CLOCK_THREAD_CPUTIME_ID of the calling thread.
int64_t WallNs();
int64_t ThreadCpuNs();

/// What one repetition runs.
struct Params {
  /// Workload seed. 0 keeps every generator at its default seed, so the
  /// fig13 legs reproduce the recorded virtual times; n > 0 shifts each
  /// generator seed by n.
  uint64_t seed = 0;
  /// Small inputs for the self-test; the checks and metrics are the same.
  bool tiny = false;
  /// Self-test hook: corrupts one result checksum before the checks run —
  /// the suite's TELEPORT Q6 leg, or the traced replica's digest on the
  /// rack and YCSB workloads (caught by the traced-vs-untraced check).
  bool corrupt_checksum = false;
};

/// Spans of the traced run, kept in memory and written out when the
/// benchmark ends. Each span is one call into a layer's public function,
/// made from the benchmark's own code; `parent` is the enclosing span
/// (-1 at the top) and `request` groups the spans of one leg or session.
class SpanLog {
 public:
  struct Span {
    std::string_view layer;
    std::string_view name;
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t request = 0;
  };

  /// Closes its span on destruction. Scopes nest strictly on one thread.
  class Scope {
   public:
    Scope(SpanLog* log, std::string_view layer, std::string_view name,
          uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int32_t index_ = -1;
  };

  void Reserve(size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration, in seconds, of the spans named (layer, name).
  double Seconds(std::string_view layer, std::string_view name) const;
  /// Number of spans named (layer, name).
  uint64_t Count(std::string_view layer, std::string_view name) const;
  /// Durations in ns of the spans named (layer, name), in record order.
  std::vector<double> Durations(std::string_view layer,
                                std::string_view name) const;

  /// Writes the per-(layer, name) span totals as comment lines, then one
  /// tab-separated line per span (layer, name, begin and end in ns relative
  /// to the first span, parent index, request) for the first 20,000 spans.
  /// Returns false if the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// Opens a span when `log` is non-null; the untraced run passes nullptr
/// and pays one branch per call site.
#define PERFBENCH_SPAN(var, log, layer, name, request)                  \
  std::optional<::perfbench::SpanLog::Scope> var;                       \
  if ((log) != nullptr) var.emplace((log), (layer), (name), (request))

/// Correctness tally of one repetition. Every check is one attempt;
/// a failed check is one failure and is reported with its description.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  uint64_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// One repetition of a workload.
struct Rep {
  double wall_s = 0;   ///< host seconds of the measured region
  double setup_s = 0;  ///< host seconds of building systems and data
  /// wall_s and setup_s split into the parts the workload times on their
  /// own, in the same order every repetition: the suite's 24 legs, one
  /// part on the rack and YCSB workloads.
  std::vector<double> wall_parts;
  std::vector<double> setup_parts;
  /// Units of work attempted and failed (suite workloads, rack sessions,
  /// transactions), counted into failed_frac.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Virtual-time results and simulator counters: a pure function of the
  /// seed, so they must repeat exactly across repetitions and between the
  /// traced and untraced runs. Keys are metric names.
  std::map<std::string, double> exact;
  /// Result digest (checksums folded); compared like `exact`.
  uint64_t digest = 0;
  /// Host-time per-layer metrics; filled by traced repetitions only.
  std::map<std::string, double> host;
  /// Wall seconds of the measured region rerun untraced under a reference
  /// configuration (the rack on kIdeal), keyed by the per-layer metric
  /// reported as the untraced wall_s minus the fastest of these.
  std::map<std::string, double> reference_wall;
};

/// Simulator counters every workload reports, whether or not its path
/// reaches the layer (a bypassed layer reports 0). Virtual times are in
/// virtual ms ("vms").
struct LayerCounters {
  // ddc: cache and pool accesses of every simulated access path.
  uint64_t accesses = 0;  ///< cache hits + misses, pool hits + faults
  uint64_t misses = 0;    ///< cache misses + pool faults to storage
  uint64_t remote_bytes = 0;
  uint64_t coherence_msgs = 0;
  // teleport: PushdownRuntime totals.
  uint64_t pushdown_calls = 0;
  double queue_wait_vms = 0;
  double online_sync_vms = 0;
  double exec_vms = 0;
  // net: Fabric totals.
  uint64_t messages = 0;
  uint64_t queued_sends = 0;
  double net_queue_wait_vms = 0;
  uint64_t doorbells_coalesced = 0;
  // sim: Interleaver::par_counters().
  uint64_t handoffs = 0;
  uint64_t batched_quanta = 0;
  // oltp: transaction outcomes.
  uint64_t commits = 0;
  uint64_t aborts = 0;

  /// Accumulates one context's (or scope's) counters.
  void AddMetrics(const teleport::sim::Metrics& m);
  /// Accumulates a runtime's completed calls and virtual breakdown.
  void AddRuntime(const teleport::tp::PushdownRuntime& rt);
  /// Accumulates a fabric's message and queueing totals.
  void AddFabric(const teleport::net::Fabric& f);
  /// Writes every counter into `out` under its per-layer metric name.
  void Fill(std::map<std::string, double>& out) const;
};

/// A workload runs one repetition; `log` is null in the untraced run.
using WorkloadFn = Rep (*)(const Params& params, SpanLog* log,
                           Checks& checks);

Rep RunFig13Suite(const Params& params, SpanLog* log, Checks& checks);
Rep RunRack2x2QueuedRdma(const Params& params, SpanLog* log, Checks& checks);
Rep RunYcsbACoop(const Params& params, SpanLog* log, Checks& checks);

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile `p` in [0, 100] of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// Set-up of the rack and YCSB workloads takes microseconds to a few
/// milliseconds, below the noise of one timing, so it is built this many
/// times per repetition and the median is reported.
inline constexpr int kSetupRepeats = 16;

/// Calls `build(log_or_null)` kSetupRepeats times, passing `log` to the
/// last call only, stores the median host seconds of one call in
/// `median_s`, and returns what the last call built. Earlier builds are
/// released outside the timed region.
template <typename F>
auto TimedSetup(SpanLog* log, double& median_s, F&& build) {
  std::vector<double> s;
  for (int i = 1;; ++i) {
    const int64_t t0 = WallNs();
    auto built = build(i == kSetupRepeats ? log : nullptr);
    s.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
    if (i == kSetupRepeats) {
      median_s = Median(s);
      return built;
    }
  }
}

/// splitmix64 finalizer, the repo's seed and digest mixer.
uint64_t Mix(uint64_t x);

}  // namespace perfbench

#endif  // TELEPORT_PERFBENCH_PERFBENCH_H_
