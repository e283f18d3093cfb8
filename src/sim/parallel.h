#ifndef TELEPORT_SIM_PARALLEL_H_
#define TELEPORT_SIM_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

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

  /// Executes every job to completion. Jobs are claimed in index order from
  /// a shared atomic cursor (deterministic claim order, nondeterministic
  /// placement — which is fine, results are merged by index). A job that
  /// throws aborts the process: legs are simulations whose failures are
  /// bugs, not recoverable conditions.
  void Run(const std::vector<std::function<void()>>& jobs);

  int host_threads() const { return host_threads_; }

 private:
  int host_threads_;
};

}  // namespace teleport::sim

#endif  // TELEPORT_SIM_PARALLEL_H_
