#ifndef TELEPORT_SIM_PARALLEL_H_
#define TELEPORT_SIM_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace teleport::sim {

inline constexpr int kMaxHostThreads = 256;

/// Reads TELEPORT_HOST_THREADS: unset or empty means 1 (the serial path);
/// otherwise it must be an integer in [1, kMaxHostThreads], and any other
/// value aborts naming the variable and the accepted range.
int HostThreadsFromEnv();

/// Runs independent jobs — whole figure legs, each owning a private
/// MemorySystem/Fabric/Metrics/Tracer arena — on a pool of host threads.
/// The runner provides scheduling only; isolation is the caller's contract
/// (a job must not touch another job's arena, and the only state legs
/// share is the process-wide log level, which is atomic). Output
/// determinism is restored by the caller collecting per-job results into
/// index-addressed slots and merging them in job order after Run returns —
/// see bench::RunLegs, which buffers each leg's BenchRecord JSONL through a
/// thread-local sink and flushes in leg order, byte-identical to a serial
/// run.
class LegRunner {
 public:
  /// n <= 1 (or a single job) runs everything inline on the calling thread.
  explicit LegRunner(int host_threads) : host_threads_(host_threads) {}

  /// Runs job(i) for every i in [0, count) to completion. Jobs are claimed
  /// in index order from a shared atomic cursor (deterministic claim order,
  /// nondeterministic placement — which is fine, results are merged by
  /// index). A job that throws aborts the process: legs are simulations
  /// whose failures are bugs, not recoverable conditions.
  void Run(size_t count, const std::function<void(size_t)>& job);

  int host_threads() const { return host_threads_; }

 private:
  int host_threads_;
};

/// Dataset generators split their draws into this many chunks: several
/// times the threads that draw them, so that one descheduled thread delays
/// the rest little. It does not depend on the dataset's size, and no
/// staged byte depends on it or on the thread count.
inline constexpr size_t kGeneratorChunks = 32;

/// Runs chunk(c) for every c in [0, kGeneratorChunks) on a LegRunner of
/// min(4, cores) host threads, where cores counts the CPUs the process may
/// run on (its affinity mask), whatever TELEPORT_HOST_THREADS says. On one
/// core the chunks run in order on the calling thread. A chunk must
/// allocate nothing (glibc would give its thread an arena of its own) and
/// write only its own bytes.
void RunGeneratorChunks(const std::function<void(size_t chunk)>& chunk);

/// A table whose row r draws `draws_per_row` values of one Rng stream,
/// right after the draws of row r - 1, split into kGeneratorChunks chunks
/// of whole rows: chunk c holds rows [begin(c), end(c)) and draws from
/// start(c), the stream's state at its first row. One Rng::Jump spaces the
/// starts, 256 steps per chunk.
class RowChunks {
 public:
  /// `rng` stands at row 0's first draw.
  RowChunks(const Rng& rng, uint64_t rows, uint64_t draws_per_row);

  uint64_t begin(size_t c) const { return std::min(rows_, c * per_chunk_); }
  uint64_t end(size_t c) const { return std::min(rows_, (c + 1) * per_chunk_); }
  const Rng& start(size_t c) const { return starts_[c]; }

  /// The stream's state past the last row's draws, where a table drawn
  /// next starts.
  Rng After() const;

 private:
  uint64_t rows_;
  uint64_t draws_per_row_;
  uint64_t per_chunk_;
  std::vector<Rng> starts_;
};

}  // namespace teleport::sim

#endif  // TELEPORT_SIM_PARALLEL_H_
