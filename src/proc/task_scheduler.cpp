#include "proc/task_scheduler.hpp"

#include "support/check.hpp"

namespace peak::proc {

const char* to_string(ExitClass cls) {
  switch (cls) {
    case ExitClass::kClean: return "clean";
    case ExitClass::kSignal: return "signal";
    case ExitClass::kTimeout: return "timeout";
    case ExitClass::kOom: return "oom";
    case ExitClass::kNonzero: return "nonzero";
  }
  return "unknown";
}

bool TaskOutcome::failures_identical() const {
  if (failures.empty()) return false;
  for (const WorkerFailure& f : failures)
    if (f.signature != failures.front().signature) return false;
  return true;
}

TaskScheduler::TaskScheduler(std::size_t num_tasks, std::size_t slots,
                             std::size_t max_task_attempts)
    : max_task_attempts_(max_task_attempts),
      slots_(slots),
      outcomes_(num_tasks),
      undecided_(num_tasks) {
  PEAK_CHECK(max_task_attempts >= 1, "a task needs at least one attempt");
  for (std::size_t i = 0; i < num_tasks; ++i)
    (slots == 0 ? pool_ : slots_[i % slots].queue).push_back(i);
}

std::size_t TaskScheduler::join() {
  slots_.emplace_back();
  return slots_.size() - 1;
}

std::optional<TaskScheduler::Dispatch> TaskScheduler::dispatch(
    std::size_t slot, TimePoint now) {
  Slot& s = slots_.at(slot);
  PEAK_CHECK(!s.held, "dispatch to a slot that holds a task");
  std::deque<std::size_t>* from = !s.queue.empty() ? &s.queue : &pool_;
  if (!from->empty()) {
    s.held = from->front();
    from->pop_front();
  } else {
    // Steal from the back of the longest sibling queue (the first of
    // equals): the victim keeps the work it would reach first.
    for (Slot& other : slots_)
      if (other.queue.size() > from->size()) from = &other.queue;
    if (from->empty()) return std::nullopt;
    s.held = from->back();
    from->pop_back();
  }
  s.dispatched_at = now;
  return Dispatch{*s.held, outcomes_[*s.held].failures.size()};
}

bool TaskScheduler::complete(std::size_t slot, std::size_t task,
                             std::string payload) {
  Slot& s = slots_.at(slot);
  if (s.held != task) return false;
  s.held.reset();
  TaskOutcome& out = outcomes_[task];
  out.ok = true;
  out.payload = std::move(payload);
  out.attempts = out.failures.size() + 1;
  --undecided_;
  return true;
}

TaskScheduler::Charge TaskScheduler::fail(std::size_t slot,
                                          std::size_t task,
                                          WorkerFailure failure,
                                          TimePoint now) {
  Slot& s = slots_.at(slot);
  if (s.held != task) return Charge::kRejected;
  s.held.reset();
  TaskOutcome& out = outcomes_[task];
  failure.task = task;
  failure.attempt = out.failures.size();
  failure.burned_wall_us =
      std::chrono::duration<double, std::micro>(now - s.dispatched_at)
          .count();
  out.failures.push_back(std::move(failure));
  out.attempts = out.failures.size();
  if (out.attempts < max_task_attempts_) {
    pool_.push_back(task);
    return Charge::kRetried;
  }
  --undecided_;  // out.ok stays false
  return Charge::kGaveUp;
}

bool TaskScheduler::stalled(std::size_t slot, TimePoint now,
                            std::chrono::steady_clock::duration timeout)
    const {
  const Slot& s = slots_.at(slot);
  return s.held && now - s.dispatched_at > timeout;
}

bool TaskScheduler::undispatched() const {
  if (!pool_.empty()) return true;
  for (const Slot& s : slots_)
    if (!s.queue.empty()) return true;
  return false;
}

}  // namespace peak::proc
