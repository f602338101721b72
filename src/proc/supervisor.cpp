#include "proc/supervisor.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>

#include "core/jsonl.hpp"
#include "obs/metrics.hpp"
#include "proc/protocol.hpp"
#include "proc/worker_table.hpp"
#include "support/check.hpp"
#include "support/shutdown.hpp"

namespace peak::proc {

namespace {

using Clock = std::chrono::steady_clock;

struct ProcMetrics {
  obs::Counter& spawned = obs::counter("proc.workers.spawned");
  obs::Counter& respawned = obs::counter("proc.workers.respawned");
  obs::Counter& term_kills = obs::counter("proc.kills.term");
  obs::Counter& kill_kills = obs::counter("proc.kills.kill");
  obs::Counter& heartbeat_gaps = obs::counter("proc.heartbeat.gaps");
  obs::Counter& tasks_retried = obs::counter("proc.tasks.retried");
  obs::Counter& tasks_failed = obs::counter("proc.tasks.failed");
  obs::Counter& exits_clean = obs::counter("proc.exits.clean");
  obs::Counter& exits_signal = obs::counter("proc.exits.signal");
  obs::Counter& exits_timeout = obs::counter("proc.exits.timeout");
  obs::Counter& exits_oom = obs::counter("proc.exits.oom");
  obs::Counter& exits_nonzero = obs::counter("proc.exits.nonzero");
};

ProcMetrics& proc_metrics() {
  static ProcMetrics* metrics = new ProcMetrics;
  return *metrics;
}

}  // namespace

/// A worker slot: the process and its watchdog; tasks live in the scheduler.
struct Supervisor::Slot {
  std::size_t index = 0;
  std::unique_ptr<WorkerProcess> worker;
  FrameReader reader;
  Clock::time_point last_frame_at;
  bool term_sent = false;  ///< the watchdog found the held task stalled
  bool kill_sent = false;
  Clock::time_point term_at;
  bool gap_counted = false;
  std::uint64_t tasks_done = 0;
};

Supervisor::Supervisor(TaskFn fn, SupervisorPolicy policy)
    : fn_(std::move(fn)), policy_(policy) {
  PEAK_CHECK(policy_.workers >= 1, "supervisor needs at least one worker");
  ignore_sigpipe_once();  // a dead worker is EPIPE on the command write
  proc_metrics();  // registered before any fork (see docs/INTERNALS §12)
}

Supervisor::~Supervisor() { kill_all(); }

void Supervisor::kill_all() {
  for (Slot& slot : slots_) {
    if (!slot.worker) continue;
    kill(slot.worker->pid(), SIGKILL);
    int status = 0;
    while (waitpid(slot.worker->pid(), &status, 0) < 0 && errno == EINTR) {
    }
    if (policy_.update_worker_table)
      WorkerTable::global().died(slot.index, "killed");
    slot.worker.reset();
  }
}

void Supervisor::spawn_slot(Slot& slot, bool respawn) {
  // Every other live worker's parent-side read fd must be closed in the
  // new child, or a dead sibling's pipe stays open and its EOF never
  // reaches the event loop. (The command write fds are handled inside
  // WorkerProcess::spawn via the same list.)
  std::vector<int> close_in_child;
  for (const Slot& other : slots_)
    if (other.worker) close_in_child.push_back(other.worker->read_fd());

  WorkerProcess::Options options;
  options.limits = policy_.limits;
  options.heartbeat_interval = policy_.heartbeat_interval;
  slot.worker = WorkerProcess::spawn(fn_, options, close_in_child);
  PEAK_CHECK(slot.worker != nullptr, "fork() failed spawning a worker");
  slot.reader = FrameReader{};
  slot.gap_counted = false;
  slot.last_frame_at = Clock::now();

  obs::tally(stats_.spawned, proc_metrics().spawned);
  if (respawn) obs::tally(stats_.respawned, proc_metrics().respawned);
  if (policy_.update_worker_table)
    WorkerTable::global().spawned(slot.index, slot.worker->pid(), respawn);
}

void Supervisor::dispatch(Slot& slot, TaskScheduler& sched) {
  const std::optional<TaskScheduler::Dispatch> next =
      sched.dispatch(slot.index, Clock::now());
  slot.term_sent = false;  // a fresh deadline, or none
  slot.kill_sent = false;
  if (!next) {
    // No undispatched work anywhere: ask for a clean exit and wait for
    // the EOF.
    slot.worker->send_exit();
    return;
  }
  if (policy_.update_worker_table)
    WorkerTable::global().running(slot.index, next->task);
  // A worker already gone shows up as EOF in the event loop.
  slot.worker->send_run(next->task, next->attempt);
}

void Supervisor::reap(Slot& slot, TaskScheduler& sched) {
  const pid_t pid = slot.worker->pid();
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  slot.worker.reset();

  // A live slot holds a task until it is told to exit.
  const bool expected_exit = !sched.held(slot.index) && WIFEXITED(status) &&
                             WEXITSTATUS(status) == 0;
  if (expected_exit) {
    obs::tally(stats_.exits_clean, proc_metrics().exits_clean);
    if (policy_.update_worker_table)
      WorkerTable::global().finished(slot.index, slot.tasks_done);
    return;
  }

  // Unexpected death. Classify it.
  WorkerFailure failure;
  failure.slot = slot.index;
  if (slot.term_sent) {
    failure.cls = ExitClass::kTimeout;
    failure.detail = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    failure.signature = "timeout";
    obs::tally(stats_.exits_timeout, proc_metrics().exits_timeout);
  } else if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    if (sig == SIGXCPU) {
      failure.cls = ExitClass::kTimeout;
      failure.signature = "cpu-limit";
      obs::tally(stats_.exits_timeout, proc_metrics().exits_timeout);
    } else {
      failure.cls = ExitClass::kSignal;
      failure.signature = "signal:" + std::to_string(sig);
      obs::tally(stats_.exits_signal, proc_metrics().exits_signal);
    }
    failure.detail = sig;
  } else {
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    failure.detail = code;
    if (code == kExitOom) {
      failure.cls = ExitClass::kOom;
      failure.signature = "oom";
      obs::tally(stats_.exits_oom, proc_metrics().exits_oom);
    } else if (code == 0) {
      // Exited "cleanly" without being told to — still a lost worker.
      failure.cls = ExitClass::kClean;
      failure.signature = "exit:0";
      obs::tally(stats_.exits_clean, proc_metrics().exits_clean);
    } else {
      failure.cls = ExitClass::kNonzero;
      failure.signature = "exit:" + std::to_string(code);
      obs::tally(stats_.exits_nonzero, proc_metrics().exits_nonzero);
    }
  }

  if (policy_.update_worker_table)
    WorkerTable::global().died(slot.index, failure.signature);

  // Charge the task the worker held, if any. Refill the slot only while
  // work waits: a worker that died after its last result costs nothing.
  if (const std::optional<std::size_t> held = sched.held(slot.index)) {
    if (sched.fail(slot.index, *held, std::move(failure), Clock::now()) ==
        TaskScheduler::Charge::kRetried)
      obs::tally(stats_.tasks_retried, proc_metrics().tasks_retried);
    else
      obs::tally(stats_.tasks_failed, proc_metrics().tasks_failed);
  }
  if (!sched.undispatched()) return;
  spawn_slot(slot, /*respawn=*/true);
  dispatch(slot, sched);
}

std::vector<TaskOutcome> Supervisor::run(std::size_t num_tasks) {
  if (num_tasks == 0) return {};

  const std::size_t workers = std::min(policy_.workers, num_tasks);
  TaskScheduler sched(num_tasks, workers, policy_.max_task_attempts);
  slots_.clear();
  slots_.resize(workers);
  if (policy_.update_worker_table) WorkerTable::global().clear();
  for (std::size_t s = 0; s < workers; ++s) slots_[s].index = s;
  for (Slot& slot : slots_) spawn_slot(slot, /*respawn=*/false);
  for (Slot& slot : slots_) dispatch(slot, sched);

  char buf[4096];
  for (;;) {
    if (support::shutdown_requested()) {
      kill_all();
      support::check_shutdown();  // throws ShutdownRequested
    }

    // No worker left means no task left: reap() refills while work waits.
    std::vector<pollfd> fds;
    std::vector<Slot*> fd_slots;
    for (Slot& slot : slots_) {
      if (!slot.worker) continue;
      fds.push_back({slot.worker->read_fd(), POLLIN, 0});
      fd_slots.push_back(&slot);
    }
    if (fds.empty()) break;

    const int ready =
        poll(fds.data(), static_cast<nfds_t>(fds.size()), /*timeout=*/10);
    if (ready < 0 && errno != EINTR) {
      kill_all();
      PEAK_CHECK(false, "poll() failed in the worker supervisor");
    }

    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Slot& slot = *fd_slots[i];
      if (!slot.worker) continue;  // reaped earlier this sweep
      const short revents = fds[i].revents;
      if (revents & POLLIN) {
        const ssize_t n = read(fds[i].fd, buf, sizeof buf);
        if (n > 0) {
          slot.reader.feed(buf, static_cast<std::size_t>(n));
          slot.last_frame_at = now;
          slot.gap_counted = false;
          while (auto payload = slot.reader.next()) {
            try {
              core::jsonl::JsonParser parser(*payload);
              const core::jsonl::JsonValue frame = parser.parse();
              const std::string& op = frame.at("op").as_string();
              if (op == "result" &&
                  sched.complete(slot.index, frame.at("task").as_u64(),
                                 frame.at("payload").as_string())) {
                ++slot.tasks_done;
                if (policy_.update_worker_table)
                  WorkerTable::global().idle(slot.index);
                dispatch(slot, sched);
              }
              // hello / hb frames only refresh last_frame_at above.
            } catch (const support::CheckError&) {
              // Garbled frame from a dying worker: ignore; the EOF (or
              // the watchdog) settles its fate.
            }
          }
          if (slot.reader.corrupted() && !slot.kill_sent) {
            kill(slot.worker->pid(), SIGKILL);
            slot.kill_sent = true;
          }
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        reap(slot, sched);  // n == 0 (EOF) or hard read error
        continue;
      }
      if (revents & (POLLHUP | POLLERR | POLLNVAL)) {
        reap(slot, sched);
        continue;
      }
    }

    // Watchdog sweep (every live slot, busy or quiet): per-dispatch
    // deadline with SIGTERM → SIGKILL escalation, plus heartbeat-gap
    // accounting. Heartbeats keep flowing from a stalled task's ticker
    // thread, so the deadline is measured from dispatch, not from the
    // last frame.
    for (Slot& slot : slots_) {
      if (!slot.worker) continue;
      if (sched.held(slot.index)) {
        if (!slot.term_sent &&
            sched.stalled(slot.index, now, policy_.stall_timeout)) {
          slot.term_sent = true;
          slot.term_at = now;
          kill(slot.worker->pid(), SIGTERM);
          obs::tally(stats_.term_kills, proc_metrics().term_kills);
        } else if (slot.term_sent && !slot.kill_sent &&
                   now - slot.term_at > policy_.term_grace) {
          slot.kill_sent = true;
          kill(slot.worker->pid(), SIGKILL);
          obs::tally(stats_.kill_kills, proc_metrics().kill_kills);
        }
      }
      if (!slot.gap_counted &&
          now - slot.last_frame_at > 4 * policy_.heartbeat_interval) {
        slot.gap_counted = true;
        obs::tally(stats_.heartbeat_gaps, proc_metrics().heartbeat_gaps);
      }
    }
  }
  PEAK_CHECK(sched.undecided() == 0, "supervisor round ended undecided");
  return sched.take_outcomes();
}

}  // namespace peak::proc
