#pragma once

/// \file supervisor.hpp
/// Supervised execution of a batch of tasks across forked worker
/// subprocesses (`peak::proc`). run(n) executes tasks 0..n-1 with a
/// deterministic slot mapping — task i belongs to slot i % workers, each
/// slot processes its items in increasing order — so a caller that
/// merges results in canonical task order gets output independent of
/// worker timing *and* of how many times a worker died along the way.
///
/// The supervisor's event loop polls every worker pipe, feeds a
/// watchdog, and turns each worker death into a typed WorkerFailure:
///   clean    normal exit after being told to (never a failure)
///   signal   killed by an uncaught signal (SIGSEGV, SIGABRT, ...)
///   timeout  killed by the watchdog (stalled past the per-task
///            deadline, SIGTERM then SIGKILL) or by RLIMIT_CPU (SIGXCPU)
///   oom      exited with kExitOom after RLIMIT_AS made an allocation
///            throw std::bad_alloc
///   nonzero  any other exit status (task exception, protocol error)
/// A failed attempt is requeued onto a freshly forked worker with an
/// incremented process-attempt counter; after max_task_attempts failures
/// the task is marked permanently failed and reported with its failure
/// history, so the caller can decide whether the failures were identical
/// (deterministic — quarantine the config) or mixed/transient.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "proc/worker.hpp"

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

struct SupervisorPolicy {
  std::size_t workers = 1;
  std::chrono::milliseconds heartbeat_interval{25};
  /// Per-dispatch deadline: a worker that holds one task longer than
  /// this is stalled and gets SIGTERM.
  std::chrono::milliseconds stall_timeout{10'000};
  /// SIGTERM → SIGKILL escalation grace.
  std::chrono::milliseconds term_grace{250};
  /// Attempts per task before giving up (1 initial + retries).
  std::size_t max_task_attempts = 3;
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
  std::uint64_t heartbeat_gaps = 0;
  std::uint64_t tasks_retried = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t exits_clean = 0;
  std::uint64_t exits_signal = 0;
  std::uint64_t exits_timeout = 0;
  std::uint64_t exits_oom = 0;
  std::uint64_t exits_nonzero = 0;
  double burned_wall_us = 0.0;  ///< total wall on failed attempts
};

class Supervisor {
public:
  Supervisor(TaskFn fn, SupervisorPolicy policy);
  ~Supervisor();  ///< kills and reaps any worker still alive

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Execute tasks 0..num_tasks-1; returns one outcome per task, in
  /// task order. Throws support::ShutdownRequested (after killing and
  /// reaping the fleet) if a shutdown signal arrives mid-round.
  std::vector<TaskOutcome> run(std::size_t num_tasks);

  [[nodiscard]] const SupervisorStats& stats() const { return stats_; }

private:
  struct Slot;

  void spawn_slot(Slot& slot, bool respawn);
  void dispatch(Slot& slot);
  void reap(Slot& slot, std::vector<TaskOutcome>& outcomes);
  void kill_all();

  TaskFn fn_;
  SupervisorPolicy policy_;
  SupervisorStats stats_;
  std::vector<Slot> slots_;
};

}  // namespace peak::proc
