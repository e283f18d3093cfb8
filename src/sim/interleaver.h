#ifndef TELEPORT_SIM_INTERLEAVER_H_
#define TELEPORT_SIM_INTERLEAVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace teleport::sim {

/// A resumable simulated thread. Concrete tasks wrap an ExecutionContext and
/// perform a small batch of work per Step(), advancing their virtual clock.
class Task {
 public:
  virtual ~Task() = default;

  /// Current position of this task on the virtual timeline.
  virtual Nanos clock() const = 0;

  /// True once the task has no more work.
  virtual bool done() const = 0;

  /// Performs the next batch of work. Called only while !done().
  virtual void Step() = 0;

  /// Runs consecutive quanta without returning to the scheduler while the
  /// task's clock stays below `bound` (or equal to it when `inclusive`),
  /// i.e. while the default smallest-clock policy would keep picking this
  /// task anyway. Returns the number of quanta executed (>= 1) — the
  /// scheduler would have dispatched exactly that many Step()s. CoopTask
  /// overrides this so N same-window quanta pay one park/unpark round trip
  /// instead of N; the default is a single Step().
  virtual uint64_t StepBatch(Nanos bound, bool inclusive) {
    (void)bound;
    (void)inclusive;
    Step();
    return 1;
  }
};

/// A scheduling policy for the Interleaver: given the indices of the
/// currently runnable tasks (ascending registration order), picks which one
/// steps next. Policies must be deterministic functions of their own state
/// and the arguments so any run can be replayed from its recorded trace.
class Schedule {
 public:
  virtual ~Schedule() = default;

  /// Returns one element of `runnable`. `tasks` is the interleaver's full
  /// registration list (for clock inspection); `runnable` is never empty.
  virtual size_t Pick(const std::vector<size_t>& runnable,
                      const std::vector<Task*>& tasks) = 0;
};

/// The conservative default: always advances the unfinished task with the
/// smallest virtual clock (ties broken by registration order). With small
/// step quanta this approximates true concurrency closely while staying
/// bit-reproducible; it is the policy every benchmark runs under.
class SmallestClockSchedule : public Schedule {
 public:
  size_t Pick(const std::vector<size_t>& runnable,
              const std::vector<Task*>& tasks) override;
};

/// Seeded-random exploration schedule: picks uniformly among the runnable
/// tasks, one RNG draw per pick. Distinct seeds yield distinct
/// interleavings with overwhelming probability, and the same seed replays
/// bit-identically.
class RandomSchedule : public Schedule {
 public:
  explicit RandomSchedule(uint64_t seed) : rng_(seed) {}

  size_t Pick(const std::vector<size_t>& runnable,
              const std::vector<Task*>& tasks) override;

 private:
  Rng rng_;
};

/// Replays a recorded schedule trace (the per-step task indices emitted by
/// Interleaver trace recording). When the trace is exhausted — or names a
/// task that is not currently runnable, which can happen after the scenario
/// under replay was edited — it falls back to smallest-clock and counts the
/// divergence, so a reproducer degrades loudly instead of deadlocking.
class ReplaySchedule : public Schedule {
 public:
  explicit ReplaySchedule(std::vector<uint32_t> trace)
      : trace_(std::move(trace)) {}

  size_t Pick(const std::vector<size_t>& runnable,
              const std::vector<Task*>& tasks) override;

  uint64_t divergences() const { return divergences_; }

 private:
  std::vector<uint32_t> trace_;
  size_t pos_ = 0;
  uint64_t divergences_ = 0;
  SmallestClockSchedule fallback_;
};

/// Compact text form of a schedule trace ("0,1,1,0"), for failure messages
/// and reproducer dumps.
std::string TraceToString(const std::vector<uint32_t>& trace);

/// Inverse of TraceToString; ignores whitespace. Malformed entries abort.
std::vector<uint32_t> TraceFromString(const std::string& s);

/// Deterministic scheduler for concurrent simulated threads. The policy is
/// pluggable: the default SmallestClockSchedule approximates fair parallel
/// progress (used by the Figs 6/7/21/22 microbenchmarks, where a
/// compute-pool thread runs concurrently with a pushed-down function and the
/// two interact through the page-coherence protocol); RandomSchedule and the
/// DfsExplorer sweep alternative interleavings for the concurrency tests.
class Interleaver {
 public:
  /// Host-dispatch counters accumulated over Run()/RunUntil() calls: how
  /// the scheduler handed work to tasks, not what the simulated system
  /// did, so they stay out of the contexts' Metrics.
  struct ParCounters {
    uint64_t handoff_waits = 0;   ///< scheduler->task dispatch round trips
    uint64_t batched_quanta = 0;  ///< extra quanta run without a handoff
  };

  /// Registers a task. Does not take ownership; tasks must outlive Run().
  void Add(Task* task) { tasks_.push_back(task); }

  /// Installs a scheduling policy (non-owning; nullptr restores the
  /// default). The policy must outlive Run().
  void set_schedule(Schedule* schedule) { schedule_ = schedule; }

  /// Records the index of the task chosen at every step into trace().
  void set_record_trace(bool on) { record_trace_ = on; }
  const std::vector<uint32_t>& trace() const { return trace_; }

  const ParCounters& par_counters() const { return par_; }

  /// Runs all tasks to completion; returns the maximum finishing clock
  /// (the simulated wall time of the parallel region).
  Nanos Run();

  /// Runs until `deadline` on the virtual timeline (tasks whose clock is
  /// already past it are left untouched). Returns the max clock seen.
  Nanos RunUntil(Nanos deadline);

 private:
  std::vector<Task*> tasks_;
  Schedule* schedule_ = nullptr;
  bool record_trace_ = false;
  std::vector<uint32_t> trace_;
  ParCounters par_;
};

}  // namespace teleport::sim

#endif  // TELEPORT_SIM_INTERLEAVER_H_
