#ifndef TELEPORT_SIM_COOP_TASK_H_
#define TELEPORT_SIM_COOP_TASK_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/units.h"
#include "ddc/memory_system.h"
#include "sim/interleaver.h"

namespace teleport::sim {

/// Adapts straight-line simulated code (an engine query, a pushdown, an
/// interfering mutator) into a steppable Task without rewriting it as a
/// state machine. The body runs on a dedicated host thread that is parked
/// except while the scheduler is inside Step(): every charged access / CPU
/// batch on the hooked ExecutionContexts counts toward a quantum, and when
/// the quantum fills the body parks and Step() returns. Exactly one thread
/// is ever runnable (strict mutex/condvar handoff), so execution remains
/// fully deterministic — the host thread is a coroutine substitute, not a
/// source of parallelism. The mutex handoff also orders the body's
/// MemorySystem and Fabric accesses against the scheduler's, so neither
/// needs atomics of its own.
///
/// The hooked contexts must be used by no other CoopTask; the body must
/// confine its simulated work to them (work on un-hooked contexts simply
/// never yields, which coarsens — but never corrupts — the interleaving).
class CoopTask : public Task {
 public:
  /// `ctxs`: the contexts whose accesses drive preemption; ctxs[0] is the
  /// primary (its virtual clock dominates ours between handoffs). `body`
  /// runs once on the worker thread. `quantum` = charged operations per
  /// Step() (1 gives the finest interleaving).
  CoopTask(std::vector<ddc::ExecutionContext*> ctxs,
           std::function<void()> body, int quantum = 1);

  /// Joins the worker. If the task was abandoned mid-run (explorer bounds,
  /// failed test), the body is unwound with a private exception from its
  /// next yield point — bodies must not catch(...) across yield points.
  ~CoopTask() override;

  CoopTask(const CoopTask&) = delete;
  CoopTask& operator=(const CoopTask&) = delete;

  Nanos clock() const override;
  bool done() const override;
  void Step() override;

  /// Runs consecutive quanta without parking while the task clock stays
  /// below `bound` (or equal when `inclusive`), paying one condvar round
  /// trip for the whole run instead of one per quantum. Quantum boundaries
  /// and charges are identical to repeated Step() — only host-side parking
  /// is elided.
  uint64_t StepBatch(Nanos bound, bool inclusive) override;

 private:
  enum class Turn { kScheduler, kWorker };
  struct Abort {};  // thrown into an abandoned body to unwind it

  static void YieldHook(void* self);
  void WorkerMain();
  /// Parks the worker until the scheduler hands the turn back.
  void ParkWorker(std::unique_lock<std::mutex>& lk);
  /// Max virtual clock across the hooked contexts. Called from the worker
  /// while it holds the turn (contexts quiescent to everyone else).
  Nanos WorkerClock() const;

  std::vector<ddc::ExecutionContext*> ctxs_;
  std::function<void()> body_;
  const int quantum_;
  int used_ = 0;  // charged ops in the current quantum (worker-only)

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Turn turn_ = Turn::kScheduler;
  bool done_ = false;
  bool aborting_ = false;
  // Batch-handoff window (see StepBatch). Written by the scheduler under
  // mu_ before the turn handoff, read by the worker after it — the condvar
  // handoff orders them. batch_continues_ flows back the same way.
  bool batch_active_ = false;
  Nanos batch_bound_ = 0;
  bool batch_inclusive_ = false;
  uint64_t batch_continues_ = 0;
  std::thread worker_;
};

}  // namespace teleport::sim

#endif  // TELEPORT_SIM_COOP_TASK_H_
