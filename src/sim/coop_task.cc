#include "sim/coop_task.h"

#include "common/logging.h"

namespace teleport::sim {

CoopTask::CoopTask(std::vector<ddc::ExecutionContext*> ctxs,
                   std::function<void()> body, int quantum)
    : ctxs_(std::move(ctxs)), body_(std::move(body)), quantum_(quantum) {
  TELEPORT_CHECK(!ctxs_.empty()) << "CoopTask needs at least one context";
  TELEPORT_CHECK(quantum_ > 0);
  worker_ = std::thread([this] { WorkerMain(); });
}

CoopTask::~CoopTask() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!done_) {
      aborting_ = true;
      turn_ = Turn::kWorker;
      cv_.notify_all();
      cv_.wait(lk, [this] { return done_; });
    }
  }
  worker_.join();
}

Nanos CoopTask::clock() const {
  // Only called while the worker is parked (strict handoff), so the
  // contexts' clocks are quiescent; the lock orders their writes before us.
  std::unique_lock<std::mutex> lk(mu_);
  Nanos max_now = 0;
  for (const ddc::ExecutionContext* ctx : ctxs_) {
    if (ctx->now() > max_now) max_now = ctx->now();
  }
  return max_now;
}

bool CoopTask::done() const {
  std::unique_lock<std::mutex> lk(mu_);
  return done_;
}

void CoopTask::Step() {
  std::unique_lock<std::mutex> lk(mu_);
  TELEPORT_DCHECK(!done_);
  turn_ = Turn::kWorker;
  cv_.notify_all();
  cv_.wait(lk, [this] { return turn_ == Turn::kScheduler || done_; });
}

uint64_t CoopTask::StepBatch(Nanos bound, bool inclusive) {
  std::unique_lock<std::mutex> lk(mu_);
  TELEPORT_DCHECK(!done_);
  batch_active_ = true;
  batch_bound_ = bound;
  batch_inclusive_ = inclusive;
  batch_continues_ = 0;
  turn_ = Turn::kWorker;
  cv_.notify_all();
  cv_.wait(lk, [this] { return turn_ == Turn::kScheduler || done_; });
  batch_active_ = false;
  return batch_continues_ + 1;
}

Nanos CoopTask::WorkerClock() const {
  Nanos max_now = 0;
  for (const ddc::ExecutionContext* ctx : ctxs_) {
    if (ctx->now() > max_now) max_now = ctx->now();
  }
  return max_now;
}

void CoopTask::YieldHook(void* self) {
  auto* t = static_cast<CoopTask*>(self);
  if (++t->used_ < t->quantum_) return;
  t->used_ = 0;
  if (t->batch_active_) {
    // The scheduler is parked waiting for our handoff, so the batch fields
    // and our contexts are quiescent: deciding here — would the
    // smallest-clock policy re-pick us anyway? — needs no lock. If yes,
    // keep running; this elides the park/unpark round trip the serial
    // scheduler would otherwise pay per quantum.
    const Nanos c = t->WorkerClock();
    if (c < t->batch_bound_ || (t->batch_inclusive_ && c == t->batch_bound_)) {
      ++t->batch_continues_;
      return;
    }
  }
  std::unique_lock<std::mutex> lk(t->mu_);
  t->turn_ = Turn::kScheduler;
  t->cv_.notify_all();
  t->ParkWorker(lk);
}

void CoopTask::ParkWorker(std::unique_lock<std::mutex>& lk) {
  cv_.wait(lk, [this] { return turn_ == Turn::kWorker; });
  if (aborting_) throw Abort{};
}

void CoopTask::WorkerMain() {
  {
    // Wait for the first Step() before touching anything.
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return turn_ == Turn::kWorker; });
    if (aborting_) {
      done_ = true;
      cv_.notify_all();
      return;
    }
  }
  for (ddc::ExecutionContext* ctx : ctxs_) {
    ctx->set_yield_hook(&CoopTask::YieldHook, this);
  }
  try {
    body_();
  } catch (const Abort&) {
    // Abandoned mid-run; unwind silently.
  }
  for (ddc::ExecutionContext* ctx : ctxs_) {
    ctx->set_yield_hook(nullptr, nullptr);
  }
  std::unique_lock<std::mutex> lk(mu_);
  done_ = true;
  turn_ = Turn::kScheduler;
  cv_.notify_all();
}

}  // namespace teleport::sim
