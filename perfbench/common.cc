#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SpanLog::Scope::Scope(SpanLog* log, std::string_view layer,
                      std::string_view name, uint64_t request)
    : log_(log) {
  index_ = static_cast<int32_t>(log_->spans_.size());
  log_->spans_.push_back({layer, name, WallNs(), 0, log_->open_, request});
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  Span& s = log_->spans_[static_cast<size_t>(index_)];
  s.end_ns = WallNs();
  log_->open_ = s.parent;
}

double SpanLog::Seconds(std::string_view layer, std::string_view name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.layer == layer && s.name == name) ns += s.end_ns - s.begin_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

uint64_t SpanLog::Count(std::string_view layer, std::string_view name) const {
  uint64_t n = 0;
  for (const Span& s : spans_) n += s.layer == layer && s.name == name;
  return n;
}

std::vector<double> SpanLog::Durations(std::string_view layer,
                                       std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == layer && s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.begin_ns));
    }
  }
  return out;
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Per-(layer, name) totals over every span, then the spans themselves up
  // to a cap (a traced rack run records about a million).
  constexpr size_t kMaxWritten = 20'000;
  std::map<std::pair<std::string_view, std::string_view>,
           std::pair<uint64_t, int64_t>>
      totals;
  for (const Span& s : spans_) {
    auto& t = totals[{s.layer, s.name}];
    ++t.first;
    t.second += s.end_ns - s.begin_ns;
  }
  std::fprintf(f, "# %zu spans recorded, the first %zu written\n",
               spans_.size(), std::min(spans_.size(), kMaxWritten));
  for (const auto& [key, t] : totals) {
    std::fprintf(f, "# total\t%.*s\t%.*s\tcount=%llu\tns=%lld\n",
                 static_cast<int>(key.first.size()), key.first.data(),
                 static_cast<int>(key.second.size()), key.second.data(),
                 static_cast<unsigned long long>(t.first),
                 static_cast<long long>(t.second));
  }
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
  std::fprintf(f, "layer\tname\tbegin_ns\tend_ns\tparent\trequest\n");
  for (size_t i = 0; i < std::min(spans_.size(), kMaxWritten); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%.*s\t%.*s\t%lld\t%lld\t%d\t%llu\n",
                 static_cast<int>(s.layer.size()), s.layer.data(),
                 static_cast<int>(s.name.size()), s.name.data(),
                 static_cast<long long>(s.begin_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void LayerCounters::AddMetrics(const teleport::sim::Metrics& m) {
  accesses += m.cache_hits + m.cache_misses + m.memory_pool_hits +
              m.memory_pool_faults;
  misses += m.cache_misses + m.memory_pool_faults;
  remote_bytes += m.RemoteMemoryBytes();
  coherence_msgs += m.coherence_messages;
  commits += m.txn_commits;
  aborts += m.txn_aborts;
}

void LayerCounters::AddRuntime(const teleport::tp::PushdownRuntime& rt) {
  const teleport::tp::PushdownBreakdown& bd = rt.total_breakdown();
  pushdown_calls += rt.completed_calls();
  queue_wait_vms += static_cast<double>(bd.queue_wait_ns) * 1e-6;
  online_sync_vms += static_cast<double>(bd.online_sync_ns) * 1e-6;
  exec_vms += static_cast<double>(bd.function_exec_ns) * 1e-6;
}

void LayerCounters::AddFabric(const teleport::net::Fabric& f) {
  messages += f.total_messages();
  for (int k = 0; k < teleport::net::kNumMessageKinds; ++k) {
    const auto kind = static_cast<teleport::net::MessageKind>(k);
    queued_sends += f.queued_sends_of(kind);
    net_queue_wait_vms += static_cast<double>(f.queue_wait_of(kind)) * 1e-6;
  }
  doorbells_coalesced += f.coalesced_doorbells();
}

void LayerCounters::Fill(std::map<std::string, double>& out) const {
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  out["ddc.accesses"] = d(accesses);
  out["ddc.misses"] = d(misses);
  out["ddc.hit_ratio"] =
      accesses == 0 ? 0.0 : 1.0 - d(misses) / d(accesses);
  out["ddc.remote_mb"] = d(remote_bytes) * 1e-6;
  out["ddc.coherence_msgs"] = d(coherence_msgs);
  out["teleport.calls"] = d(pushdown_calls);
  out["teleport.queue_wait_vms"] = queue_wait_vms;
  out["teleport.online_sync_vms"] = online_sync_vms;
  out["teleport.exec_vms"] = exec_vms;
  out["net.messages"] = d(messages);
  out["net.queued_sends"] = d(queued_sends);
  out["net.queue_wait_vms"] = net_queue_wait_vms;
  out["net.doorbells_coalesced"] = d(doorbells_coalesced);
  out["sim.handoffs"] = d(handoffs);
  out["sim.batched_quanta"] = d(batched_quanta);
  out["oltp.commits"] = d(commits);
  out["oltp.aborts"] = d(aborts);
  out["oltp.commit_ratio"] =
      commits + aborts == 0 ? 0.0 : d(commits) / d(commits + aborts);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
