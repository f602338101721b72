#pragma once

/// \file supervisor.hpp
/// Supervised execution of batches of tasks across forked worker
/// subprocesses (`peak::proc`). run(inputs) executes tasks
/// 0..inputs.size()-1 under a TaskScheduler (task_scheduler.hpp), which
/// makes every scheduling decision; a caller that merges results in
/// canonical task order gets output independent of worker timing *and*
/// of how many times a worker died along the way.
///
/// Workers live across rounds: a round forks only the slots it can use
/// that hold no live worker, and each task's input string travels in its
/// run frame, so a worker reads nothing the parent changed after the
/// fork unless it arrives as input. Between rounds a worker is idle: it
/// holds no task, so it is never stalled, and one that died while idle
/// is reaped at the next round and replaced there. The destructor
/// retires every worker with an exit frame and reaps it.
///
/// The supervisor owns the I/O: pipes, fork, rlimits, the event loop
/// that polls every busy worker's pipe, SIGTERM → SIGKILL escalation of
/// a stalled worker, and turning each worker death into a typed
/// WorkerFailure:
///   clean    normal exit after being told to (never a failure)
///   signal   killed by an uncaught signal (SIGSEGV, SIGABRT, ...)
///   timeout  killed by the watchdog (stalled past the per-task
///            deadline, SIGTERM then SIGKILL) or by RLIMIT_CPU (SIGXCPU)
///   oom      exited with kExitOom after RLIMIT_AS made an allocation
///            throw std::bad_alloc
///   nonzero  any other exit status (task exception, protocol error)
/// A slot whose worker died is refilled with a fresh fork while the
/// scheduler still has undispatched work.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "proc/task_scheduler.hpp"
#include "proc/worker.hpp"

namespace peak::proc {

struct SupervisorPolicy {
  std::size_t workers = 1;
  /// Per-dispatch deadline: a worker that holds one task longer than
  /// this is stalled and gets SIGTERM.
  std::chrono::milliseconds stall_timeout{10'000};
  /// SIGTERM → SIGKILL escalation grace, and how long a retired worker
  /// may take to exit before it gets SIGKILL.
  std::chrono::milliseconds term_grace{250};
  /// Attempts per task before giving up (1 initial + retries).
  std::size_t max_task_attempts = 3;
  /// Caps of each worker. RLIMIT_CPU bounds a worker's whole life, every
  /// round it serves included.
  ResourceLimits limits;
  /// Publish per-worker rows to WorkerTable::global() (the /workers
  /// endpoint); off for nested/throwaway supervisors in tests.
  bool update_worker_table = true;
};

/// Counters mirrored into the obs registry (proc.* metrics) as they
/// happen; this struct is the per-supervisor view.
struct SupervisorStats {
  std::uint64_t spawned = 0;
  std::uint64_t respawned = 0;
  std::uint64_t term_kills = 0;
  std::uint64_t kill_kills = 0;
  std::uint64_t tasks_retried = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t exits_clean = 0;
  std::uint64_t exits_signal = 0;
  std::uint64_t exits_timeout = 0;
  std::uint64_t exits_oom = 0;
  std::uint64_t exits_nonzero = 0;
};

class Supervisor {
public:
  /// A task that reads nothing but its index and process attempt.
  using IndexTaskFn =
      std::function<std::string(std::size_t task, std::size_t attempt)>;

  Supervisor(TaskFn fn, SupervisorPolicy policy);
  Supervisor(IndexTaskFn fn, SupervisorPolicy policy);
  /// Retires every live worker: an exit frame, then SIGKILL for one
  /// still alive after term_grace; each is reaped.
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Execute one task per input, task i reading inputs[i]; returns one
  /// outcome per task, in task order. Throws support::ShutdownRequested
  /// (after killing and reaping the fleet) if a shutdown signal arrives
  /// mid-round.
  std::vector<TaskOutcome> run(const std::vector<std::string>& inputs);
  /// Execute tasks 0..num_tasks-1 with empty inputs.
  std::vector<TaskOutcome> run(std::size_t num_tasks);

  [[nodiscard]] const SupervisorStats& stats() const { return stats_; }

private:
  struct Slot;

  void spawn_slot(Slot& slot, bool respawn);
  void dispatch(Slot& slot, TaskScheduler& sched,
                const std::vector<std::string>& inputs);
  /// Classify a dead worker's exit `status` and clear its slot; nullopt
  /// for the clean exit it was told to make.
  std::optional<WorkerFailure> bury(Slot& slot, int status, bool told);
  void reap(Slot& slot, TaskScheduler& sched,
            const std::vector<std::string>& inputs);
  void reap_idle();
  void kill_all();
  void retire_all();

  TaskFn fn_;
  SupervisorPolicy policy_;
  SupervisorStats stats_;
  std::vector<Slot> slots_;
};

}  // namespace peak::proc
