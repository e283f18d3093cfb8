#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "common/logging.h"

namespace teleport::sim {

int HostThreadsFromEnv() {
  const char* env = std::getenv("TELEPORT_HOST_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  // Out-of-range input saturates to LONG_MIN/LONG_MAX, which the bounds
  // below reject too.
  const long v = std::strtol(env, &end, 10);
  TELEPORT_CHECK(end != env && *end == '\0' && v >= 1 && v <= kMaxHostThreads)
      << "TELEPORT_HOST_THREADS=\"" << env << "\": expected an integer in [1, "
      << kMaxHostThreads << "]";
  return static_cast<int>(v);
}

void LegRunner::Run(const std::vector<std::function<void()>>& jobs) {
  if (jobs.empty()) return;
  const size_t workers =
      std::min(static_cast<size_t>(host_threads_ < 1 ? 1 : host_threads_),
               jobs.size());
  if (workers <= 1) {
    for (const auto& job : jobs) job();
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      jobs[i]();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is pool member 0
  for (std::thread& t : pool) t.join();
}

}  // namespace teleport::sim
