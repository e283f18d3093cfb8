#include "sim/parallel.h"

#include <sched.h>

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

void LegRunner::Run(size_t count, const std::function<void(size_t)>& job) {
  if (count == 0) return;
  const size_t workers = std::min(
      static_cast<size_t>(host_threads_ < 1 ? 1 : host_threads_), count);
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) job(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      job(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is pool member 0
  for (std::thread& t : pool) t.join();
}

void RunGeneratorChunks(const std::function<void(size_t chunk)>& chunk) {
  // std::thread::hardware_concurrency() counts the host's CPUs, not the
  // ones this process may use: under `taskset -c 0` it would put four
  // threads on one core.
  cpu_set_t cpus;
  int cores = 1;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    cores = CPU_COUNT(&cpus);
  }
  LegRunner(std::clamp(cores, 1, 4)).Run(kGeneratorChunks, chunk);
}

RowChunks::RowChunks(const Rng& rng, uint64_t rows, uint64_t draws_per_row)
    : rows_(rows),
      draws_per_row_(draws_per_row),
      per_chunk_((rows + kGeneratorChunks - 1) / kGeneratorChunks) {
  starts_.reserve(kGeneratorChunks);
  const Rng::Jump stride(per_chunk_ * draws_per_row);
  Rng at = rng;
  for (size_t c = 0; c < kGeneratorChunks; ++c) {
    if (c > 0) stride.Apply(at);
    starts_.push_back(at);
  }
}

Rng RowChunks::After() const {
  if (rows_ == 0) return starts_[0];
  const size_t last = (rows_ - 1) / per_chunk_;  // the chunk of the last row
  Rng after = starts_[last];
  after.Advance((rows_ - begin(last)) * draws_per_row_);
  return after;
}

}  // namespace teleport::sim
