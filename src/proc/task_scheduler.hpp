#pragma once

/// \file task_scheduler.hpp
/// The one fleet scheduler (`peak::proc`): one round's task table and
/// every scheduling decision of the forked-worker Supervisor and the TCP
/// Coordinator, which adapt their I/O events to calls here. It has no
/// clock, fork, socket or sleep, so tests script any death schedule.
///
/// Task i is dealt to slot i mod W, in join order. An idle slot takes
/// its own queue's front, then the requeue pool's front, then steals
/// from the back of the longest sibling queue. Each undecided task is in
/// exactly one place: a queue, the pool, or held by one slot. A failed
/// attempt joins the task's WorkerFailure history and goes to the pool,
/// until max_task_attempts failures give it up. A slot that lost its
/// worker keeps its queue, for a new worker or for thieves.

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace peak::proc {

enum class ExitClass { kClean, kSignal, kTimeout, kOom, kNonzero };

[[nodiscard]] const char* to_string(ExitClass cls);

/// One failed worker attempt, classified.
struct WorkerFailure {
  ExitClass cls = ExitClass::kClean;
  int detail = 0;  ///< signal number (kSignal/kTimeout) or exit status
  std::size_t slot = 0;
  std::size_t task = 0;
  std::size_t attempt = 0;
  double burned_wall_us = 0.0;  ///< wall from dispatch to reap
  /// Stable identity of the failure mode ("signal:11", "timeout",
  /// "oom", "exit:87"); K identical signatures on one task mean the
  /// failure is deterministic.
  std::string signature;
};

struct TaskOutcome {
  bool ok = false;
  std::string payload;  ///< the TaskFn's return value when ok
  std::size_t attempts = 0;
  std::vector<WorkerFailure> failures;

  /// True when every failed attempt shares one signature (and there was
  /// at least one failure) — the caller's deterministic-crash test.
  [[nodiscard]] bool failures_identical() const;
};

class TaskScheduler {
public:
  /// The caller's steady-clock readings; only compared here.
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Run `task` as attempt `attempt` (its failures so far).
  struct Dispatch {
    std::size_t task = 0;
    std::size_t attempt = 0;
  };

  /// What fail() did.
  enum class Charge {
    kRejected,  ///< the slot does not hold that task: nothing changed
    kRetried,   ///< the task went back to the pool
    kGaveUp,    ///< that was the task's last attempt
  };

  /// Deal tasks 0..num_tasks-1 over `slots` slots (0: all to the pool).
  TaskScheduler(std::size_t num_tasks, std::size_t slots,
                std::size_t max_task_attempts);

  /// Add an empty slot (a worker joined mid-round); returns its index.
  std::size_t join();

  /// Next task for idle `slot`, held from `now`; nullopt when nothing
  /// is left to dispatch.
  std::optional<Dispatch> dispatch(std::size_t slot, TimePoint now);

  /// `slot` delivered `task`'s result. False, changing nothing, unless
  /// `slot` holds `task`.
  bool complete(std::size_t slot, std::size_t task, std::string payload);

  /// The attempt `slot` holds for `task` failed (a remote error, or the
  /// worker is lost). Fills the failure's task, attempt and burned wall.
  Charge fail(std::size_t slot, std::size_t task, WorkerFailure failure,
              TimePoint now);

  /// `slot` holds a task dispatched more than `timeout` before `now`.
  [[nodiscard]] bool stalled(std::size_t slot, TimePoint now,
                             std::chrono::steady_clock::duration timeout)
      const;

  /// The task `slot` holds.
  [[nodiscard]] std::optional<std::size_t> held(std::size_t slot) const {
    return slots_.at(slot).held;
  }
  /// Where the undispatched tasks wait.
  [[nodiscard]] const std::deque<std::size_t>& queue(
      std::size_t slot) const {
    return slots_.at(slot).queue;
  }
  [[nodiscard]] const std::deque<std::size_t>& pool() const { return pool_; }
  /// A task waits in a queue or the pool: a lost worker is replaced
  /// only then.
  [[nodiscard]] bool undispatched() const;
  [[nodiscard]] std::size_t undecided() const { return undecided_; }

  /// One outcome per task, in task order; ends the round.
  [[nodiscard]] std::vector<TaskOutcome> take_outcomes() {
    return std::move(outcomes_);
  }

private:
  struct Slot {
    std::deque<std::size_t> queue;  ///< dealt tasks, not yet dispatched
    std::optional<std::size_t> held;
    TimePoint dispatched_at{};
  };

  std::size_t max_task_attempts_;
  std::vector<Slot> slots_;
  std::deque<std::size_t> pool_;  ///< requeued (or dealt without slots)
  std::vector<TaskOutcome> outcomes_;
  std::size_t undecided_;
};

}  // namespace peak::proc
