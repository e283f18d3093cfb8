// The repo benchmark program.
//
//   perfbench --workload <fig13_suite|rack_2x2_qrdma|ycsb_a_coop>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>] [--tiny] [--corrupt-checksum]
//
// Repeats the workload for --seconds of host time (at least once) and
// reports wall and set-up times as the sum of each separately timed part's
// fastest repetition (the suite's legs; the whole repetition on the other
// workloads). With --trace 0
// every repetition is untraced and the end-to-end metrics are printed.
// With --trace 1 untraced and traced repetitions alternate: the traced
// ones record spans around every call into a layer, the per-layer metrics
// are derived from those spans
// and from the simulator's own counters, and every virtual-time result and
// counter must match the untraced run exactly. The last traced
// repetition's spans are written to --spans-dir.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench.h"

extern char** environ;

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"fig13_suite", &RunFig13Suite},
    {"rack_2x2_qrdma", &RunRack2x2QueuedRdma},
    {"ycsb_a_coop", &RunYcsbACoop},
};

struct Metric {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), on every workload.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},     {"peak_rss_mb", "MB"},
    {"vtime_ms", "ms"},   {"vlat_p50_us", "us"},
};

/// Figures printed in the report but not in the --trace 0 JSON. wall_s
/// is on every workload, but other tenants of a shared host can slow a
/// whole run 1.5-2x for minutes, more than any bound on run-to-run spread
/// allows; it is in the --trace 1 JSON as total.wall_s. The others are
/// defined on one workload only (the rack's 99.9th percentile is the only
/// tail with enough samples beyond it).
constexpr Metric kReportOnly[] = {
    {"wall_s", "s"},
    {"vlat_p999_us", "us"},
    {"teleport_speedup", "x"},
    {"vtxn_per_ms", "1/ms"},
};

/// Per-layer metrics (--trace 1), on every workload; a layer the workload
/// bypasses reports 0.
constexpr Metric kPerLayer[] = {
    {"gen.db_s", "s"},
    {"gen.graph_s", "s"},
    {"gen.mr_s", "s"},
    {"gen.oltp_s", "s"},
    {"gen.calls", "count"},
    {"db.local_s", "s"},
    {"db.ddc_s", "s"},
    {"db.teleport_s", "s"},
    {"graph.local_s", "s"},
    {"graph.ddc_s", "s"},
    {"graph.teleport_s", "s"},
    {"mr.local_s", "s"},
    {"mr.ddc_s", "s"},
    {"mr.teleport_s", "s"},
    {"ddc.remote_path_s", "s"},
    {"ddc.accesses", "count"},
    {"ddc.misses", "count"},
    {"ddc.hit_ratio", "ratio"},
    {"ddc.remote_mb", "MB"},
    {"ddc.coherence_msgs", "count"},
    {"ddc.host_ns_per_access", "ns"},
    {"teleport.calls", "count"},
    {"teleport.call_host_ns", "ns"},
    {"teleport.body_host_ns", "ns"},
    {"teleport.queue_wait_vms", "vms"},
    {"teleport.online_sync_vms", "vms"},
    {"teleport.exec_vms", "vms"},
    {"net.messages", "count"},
    {"net.queued_sends", "count"},
    {"net.queue_wait_vms", "vms"},
    {"net.doorbells_coalesced", "count"},
    {"net.backend_host_s", "s"},
    {"rack.session_host_us_p50", "us"},
    {"rack.session_host_us_p99", "us"},
    {"rack.context_host_ns", "ns"},
    {"sim.handoffs", "count"},
    {"sim.batched_quanta", "count"},
    {"sim.handoff_s", "s"},
    {"sim.host_us_per_handoff", "us"},
    {"oltp.commits", "count"},
    {"oltp.aborts", "count"},
    {"oltp.commit_ratio", "ratio"},
    {"oltp.session_cpu_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"total.wall_s", "s"},
};

struct Args {
  std::string workload;
  Params params;
  double seconds = -1;
  int trace = -1;
  std::string spans_dir;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-dir <dir>] [--tiny] "
               "[--corrupt-checksum]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.params.tiny = true;
      continue;
    }
    if (flag == "--corrupt-checksum") {
      a.params.corrupt_checksum = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.params.seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || value[0] == '-') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = value[0] - '0';
    } else if (flag == "--spans-dir") {
      a.spans_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds < 0 || a.trace < 0) {
    Usage("--workload, --seconds and --trace are required");
  }
  return a;
}

/// The simulator reads TELEPORT_* variables when a MemorySystem or Fabric
/// is built, and a mistyped value silently runs another configuration. The
/// benchmark sets every such knob through the API, so any such variable in
/// the environment is an error.
void RejectSimulatorEnvironment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TELEPORT_", 9) == 0) {
      const char* eq = std::strchr(*e, '=');
      const int len = eq == nullptr ? static_cast<int>(std::strlen(*e))
                                    : static_cast<int>(eq - *e);
      std::fprintf(stderr,
                   "perfbench: environment variable %.*s is set; it changes "
                   "the simulated configuration. Unset it and rerun.\n",
                   len, *e);
      std::exit(2);
    }
  }
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host per-layer metrics of one traced repetition: the span-derived
/// layer times plus whatever the workload measured itself.
std::map<std::string, double> HostLayerMetrics(const Rep& rep,
                                               const SpanLog& log) {
  std::map<std::string, double> m = rep.host;
  uint64_t gen_calls = 0;
  for (const char* gen : {"db", "graph", "mr", "oltp"}) {
    m[std::string("gen.") + gen + "_s"] = log.Seconds("gen", gen);
    gen_calls += log.Count("gen", gen);
  }
  m["gen.calls"] = static_cast<double>(gen_calls);
  for (const char* engine : {"db", "graph", "mr"}) {
    for (const char* platform : {"local", "ddc", "teleport"}) {
      m[std::string(engine) + "." + platform + "_s"] =
          log.Seconds(engine, platform);
    }
  }
  return m;
}

/// Sum over the parts of a repetition of each part's fastest time across
/// `reps`.
double FastestSum(const std::vector<Rep>& reps,
                  std::vector<double> Rep::*parts) {
  std::vector<double> fastest = reps.front().*parts;
  for (const Rep& r : reps) {
    for (size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], (r.*parts)[i]);
    }
  }
  double sum = 0;
  for (double s : fastest) sum += s;
  return sum;
}

/// Reports every key whose value differs between `a` and `b`.
void ExpectSameExact(const Rep& a, const Rep& b, const std::string& what,
                     Checks& checks) {
  checks.Expect(a.digest == b.digest, what + ": result digest differs");
  for (const auto& [name, value] : a.exact) {
    const auto it = b.exact.find(name);
    checks.Expect(it != b.exact.end() && it->second == value,
                  what + ": " + name + " differs");
  }
  checks.Expect(a.exact.size() == b.exact.size(),
                what + ": different counter sets");
}

/// Keeps freed memory in the process. By default glibc maps large blocks
/// fresh and returns them on free, so every repetition page-faults its
/// data in again; that kernel time varies with the load on the host and
/// made the first repetitions the slowest.
void KeepFreedMemory() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RejectSimulatorEnvironment();
  KeepFreedMemory();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());

  Checks checks;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<std::map<std::string, double>> traced_host;
  std::unique_ptr<SpanLog> last_log;
  // One round is an untraced repetition, plus a traced one with --trace 1.
  // Rounds continue while another one is expected to end within --seconds.
  const int64_t start = WallNs();
  std::vector<double> round_s;
  do {
    const int64_t round_start = WallNs();
    untraced.push_back(workload->run(args.params, nullptr, checks));
    if (args.trace == 1) {
      auto log = std::make_unique<SpanLog>();
      traced.push_back(workload->run(args.params, log.get(), checks));
      traced_host.push_back(HostLayerMetrics(traced.back(), *log));
      last_log = std::move(log);
    }
    round_s.push_back((WallNs() - round_start) * 1e-9);
  } while ((WallNs() - start) * 1e-9 + Median(round_s) <= args.seconds);

  const Rep& first = untraced.front();
  for (size_t i = 1; i < untraced.size(); ++i) {
    ExpectSameExact(first, untraced[i],
                    "repetition " + std::to_string(i) + " vs 0", checks);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    ExpectSameExact(first, traced[i],
                    "traced repetition " + std::to_string(i) + " vs untraced",
                    checks);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<Rep>* reps : {&untraced, &traced}) {
    for (const Rep& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }

  // Interference from other tenants of the host only ever adds time, and it
  // often comes in bursts shorter than a suite repetition, so each part's
  // fastest repetition is the closest estimate of the simulator's own cost.
  std::map<std::string, double> e2e = first.exact;
  e2e["wall_s"] = FastestSum(untraced, &Rep::wall_parts);
  e2e["setup_s"] = FastestSum(untraced, &Rep::setup_parts);
  e2e["peak_rss_mb"] = PeakRssMb();

  std::map<std::string, double> layer;
  if (args.trace == 1) {
    for (const Metric& m : kPerLayer) {
      const auto it = first.exact.find(m.name);
      if (it != first.exact.end()) {
        layer[m.name] = it->second;
        continue;
      }
      std::vector<double> values;
      for (const auto& host : traced_host) {
        const auto h = host.find(m.name);
        if (h != host.end()) values.push_back(h->second);
      }
      layer[m.name] = Median(values);
    }
    std::map<std::string, std::vector<double>> reference;
    for (const Rep& r : traced) {
      for (const auto& [name, s] : r.reference_wall) reference[name].push_back(s);
    }
    layer["trace.overhead_frac"] =
        FastestSum(traced, &Rep::wall_parts) / e2e["wall_s"] - 1.0;
    layer["total.wall_s"] = e2e["wall_s"];
    for (const auto& [name, s] : reference) {
      layer[name] = e2e["wall_s"] - *std::min_element(s.begin(), s.end());
    }
    if (!args.spans_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(args.spans_dir, ec);
      const std::string path = args.spans_dir + "/" + workload->name +
                               "-seed" + std::to_string(args.params.seed) +
                               ".tsv";
      checks.Expect(last_log->WriteTsv(path), "could not write " + path);
    }
  }

  // Human-readable report.
  std::printf("perfbench %s seed=%llu trace=%d repetitions=%zu+%zu\n",
              workload->name,
              static_cast<unsigned long long>(args.params.seed), args.trace,
              untraced.size(), traced.size());
  for (const Metric& m : kEndToEnd) {
    std::printf("  %-26s %16.6f %s\n", m.name, e2e[m.name], m.unit);
  }
  std::printf("  %-26s", "wall_s per repetition");
  for (const Rep& r : untraced) std::printf(" %.4f", r.wall_s);
  if (!traced.empty()) std::printf(" | traced");
  for (const Rep& r : traced) std::printf(" %.4f", r.wall_s);
  std::printf("\n");
  std::printf("  %-26s %16.0f requests\n", "vlat_samples",
              e2e["vlat_samples"]);
  for (const Metric& m : kReportOnly) {
    const auto it = e2e.find(m.name);
    if (it != e2e.end()) {
      std::printf("  %-26s %16.6f %s\n", m.name, it->second, m.unit);
    }
  }
  std::printf("  %-26s %16.6f (%llu/%llu)\n", "failed_frac",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& [name, value] : layer) {
    std::printf("  %-26s %16.6f\n", name.c_str(), value);
  }
  for (const std::string& f : checks.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  // The JSON result: end-to-end metrics untraced, per-layer metrics traced.
  std::vector<std::pair<const Metric*, double>> out;
  bool finite = true;
  if (args.trace == 0) {
    for (const Metric& m : kEndToEnd) out.emplace_back(&m, e2e[m.name]);
  } else {
    for (const Metric& m : kPerLayer) out.emplace_back(&m, layer[m.name]);
  }
  for (const auto& [m, value] : out) {
    if (!std::isfinite(value)) {
      std::printf("CHECK FAILED: %s is not a finite number\n", m->name);
      finite = false;
    }
  }
  const bool correct = checks.failed() == 0 && failed == 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].first->name,
                finite ? out[i].second : 0.0, out[i].first->unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
