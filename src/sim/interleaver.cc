#include "sim/interleaver.h"

#include <limits>
#include <sstream>

#include "common/logging.h"

namespace teleport::sim {

namespace {
constexpr Nanos kForever = std::numeric_limits<Nanos>::max();
}  // namespace

size_t SmallestClockSchedule::Pick(const std::vector<size_t>& runnable,
                                   const std::vector<Task*>& tasks) {
  size_t best = runnable.front();
  for (const size_t i : runnable) {
    if (tasks[i]->clock() < tasks[best]->clock()) best = i;
  }
  return best;  // runnable is ascending, so ties keep registration order
}

size_t RandomSchedule::Pick(const std::vector<size_t>& runnable,
                            const std::vector<Task*>& /*tasks*/) {
  return runnable[rng_.Uniform(runnable.size())];
}

size_t ReplaySchedule::Pick(const std::vector<size_t>& runnable,
                            const std::vector<Task*>& tasks) {
  if (pos_ < trace_.size()) {
    const size_t wanted = trace_[pos_++];
    for (const size_t i : runnable) {
      if (i == wanted) return i;
    }
    ++divergences_;  // trace names a task that is done/blocked here
  } else if (!trace_.empty()) {
    ++divergences_;  // trace exhausted before the scenario finished
  }
  return fallback_.Pick(runnable, tasks);
}

std::string TraceToString(const std::vector<uint32_t>& trace) {
  std::ostringstream os;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) os << ",";
    os << trace[i];
  }
  return os.str();
}

std::vector<uint32_t> TraceFromString(const std::string& s) {
  std::vector<uint32_t> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    size_t pos = 0;
    const unsigned long v = std::stoul(tok, &pos);
    TELEPORT_CHECK(pos > 0) << "malformed trace token: " << tok;
    out.push_back(static_cast<uint32_t>(v));
  }
  return out;
}

Nanos Interleaver::Run() { return RunUntil(kForever); }

Nanos Interleaver::RunUntil(Nanos deadline) {
  std::vector<size_t> runnable;
  Nanos max_clock = 0;
  while (true) {
    runnable.clear();
    for (size_t i = 0; i < tasks_.size(); ++i) {
      Task* t = tasks_[i];
      if (t->done()) continue;
      if (t->clock() >= deadline) continue;
      runnable.push_back(i);
    }
    if (runnable.empty()) break;
    if (schedule_ == nullptr) {
      // Default smallest-clock policy with batched handoffs: the pick may
      // run quanta back to back while it would remain the pick anyway —
      // its clock below the runner-up's (or equal, when the pick's lower
      // registration index wins the tie) and below the deadline. Quantum
      // boundaries, charges, and (recorded) trace entries are identical to
      // the unbatched loop; only park/unpark round trips are saved.
      size_t pick = runnable.front();
      for (const size_t i : runnable) {
        if (tasks_[i]->clock() < tasks_[pick]->clock()) pick = i;
      }
      size_t runner_up = tasks_.size();
      for (const size_t i : runnable) {
        if (i == pick) continue;
        if (runner_up == tasks_.size() ||
            tasks_[i]->clock() < tasks_[runner_up]->clock()) {
          runner_up = i;
        }
      }
      Nanos bound = deadline;
      bool inclusive = false;
      if (runner_up != tasks_.size() &&
          tasks_[runner_up]->clock() < deadline) {
        bound = tasks_[runner_up]->clock();
        inclusive = pick < runner_up;
      }
      TELEPORT_DCHECK(!tasks_[pick]->done());
      const uint64_t quanta = tasks_[pick]->StepBatch(bound, inclusive);
      par_.handoff_waits += 1;
      par_.batched_quanta += quanta - 1;
      if (record_trace_) {
        trace_.insert(trace_.end(), quanta, static_cast<uint32_t>(pick));
      }
      if (tasks_[pick]->clock() > max_clock) {
        max_clock = tasks_[pick]->clock();
      }
      continue;
    }
    const size_t pick = schedule_->Pick(runnable, tasks_);
    TELEPORT_DCHECK(!tasks_[pick]->done());
    if (record_trace_) trace_.push_back(static_cast<uint32_t>(pick));
    tasks_[pick]->Step();
    par_.handoff_waits += 1;
    if (tasks_[pick]->clock() > max_clock) max_clock = tasks_[pick]->clock();
  }
  for (Task* t : tasks_) {
    if (t->clock() > max_clock) max_clock = t->clock();
  }
  return max_clock;
}

}  // namespace teleport::sim
