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

int wait_status(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

}  // namespace

/// A worker slot: the process and its watchdog; tasks live in the scheduler.
struct Supervisor::Slot {
  std::size_t index = 0;
  std::unique_ptr<WorkerProcess> worker;
  FrameReader reader;
  bool term_sent = false;  ///< the watchdog found the held task stalled
  bool kill_sent = false;
  Clock::time_point term_at;
  std::uint64_t tasks_done = 0;
};

Supervisor::Supervisor(TaskFn fn, SupervisorPolicy policy)
    : fn_(std::move(fn)), policy_(policy) {
  PEAK_CHECK(policy_.workers >= 1, "supervisor needs at least one worker");
  ignore_sigpipe_once();  // a dead worker is EPIPE on the command write
  proc_metrics();  // registered before any fork (see docs/INTERNALS §12)
  if (policy_.update_worker_table) WorkerTable::global().clear();
}

Supervisor::Supervisor(IndexTaskFn fn, SupervisorPolicy policy)
    : Supervisor(TaskFn([fn = std::move(fn)](std::size_t task,
                                             std::size_t attempt,
                                             const std::string&) {
                   return fn(task, attempt);
                 }),
                 policy) {}

Supervisor::~Supervisor() { retire_all(); }

void Supervisor::kill_all() {
  for (Slot& slot : slots_) {
    if (!slot.worker) continue;
    kill(slot.worker->pid(), SIGKILL);
    (void)wait_status(slot.worker->pid());
    if (policy_.update_worker_table)
      WorkerTable::global().died(slot.index, "killed");
    slot.worker.reset();
  }
}

void Supervisor::retire_all() {
  for (Slot& slot : slots_)
    if (slot.worker) slot.worker->send_exit();
  const Clock::time_point deadline = Clock::now() + policy_.term_grace;
  char buf[4096];
  for (Slot& slot : slots_) {
    if (!slot.worker) continue;
    // A worker closes its result pipe as it exits; past the grace it is
    // killed instead.
    pollfd pfd{slot.worker->read_fd(), POLLIN, 0};
    bool told = true;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      int ready = -1;
      if (left.count() > 0) {
        ready = poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready == 0 || (ready < 0 && errno == EINTR)) continue;
      }
      if (ready < 0) {  // past the grace, or poll failed
        kill(slot.worker->pid(), SIGKILL);
        told = false;
        break;
      }
      const ssize_t n = read(pfd.fd, buf, sizeof buf);
      if (n > 0 || (n < 0 && errno == EINTR)) continue;
      break;  // EOF or a hard read error: the worker is gone
    }
    (void)bury(slot, wait_status(slot.worker->pid()), told);
  }
}

void Supervisor::spawn_slot(Slot& slot, bool respawn) {
  // Every other live worker's parent-side pipe ends must be closed in
  // the new child (see WorkerProcess::spawn).
  std::vector<int> close_in_child;
  for (const Slot& other : slots_)
    if (other.worker) {
      close_in_child.push_back(other.worker->read_fd());
      close_in_child.push_back(other.worker->write_fd());
    }

  slot.worker = WorkerProcess::spawn(fn_, policy_.limits, close_in_child);
  PEAK_CHECK(slot.worker != nullptr, "fork() failed spawning a worker");
  slot.reader = FrameReader{};

  obs::tally(stats_.spawned, proc_metrics().spawned);
  if (respawn) obs::tally(stats_.respawned, proc_metrics().respawned);
  if (policy_.update_worker_table)
    WorkerTable::global().spawned(slot.index, slot.worker->pid(), respawn);
}

void Supervisor::dispatch(Slot& slot, TaskScheduler& sched,
                          const std::vector<std::string>& inputs) {
  const std::optional<TaskScheduler::Dispatch> next =
      sched.dispatch(slot.index, Clock::now());
  slot.term_sent = false;  // a fresh deadline, or none
  slot.kill_sent = false;
  if (!next) return;  // nothing left to dispatch: the worker idles
  if (policy_.update_worker_table)
    WorkerTable::global().running(slot.index, next->task);
  // A worker already gone shows up as EOF in the event loop.
  slot.worker->send_run(next->task, next->attempt, inputs[next->task]);
}

std::optional<WorkerFailure> Supervisor::bury(Slot& slot, int status,
                                              bool told) {
  slot.worker.reset();
  if (told && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    obs::tally(stats_.exits_clean, proc_metrics().exits_clean);
    if (policy_.update_worker_table)
      WorkerTable::global().finished(slot.index, slot.tasks_done);
    return std::nullopt;
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
  return failure;
}

void Supervisor::reap(Slot& slot, TaskScheduler& sched,
                      const std::vector<std::string>& inputs) {
  std::optional<WorkerFailure> failure =
      bury(slot, wait_status(slot.worker->pid()), /*told=*/false);

  // Charge the task the worker held, if any. Refill the slot only while
  // work waits: a worker that died after its last result costs nothing
  // and is replaced by the next round that needs its slot.
  if (const std::optional<std::size_t> held = sched.held(slot.index)) {
    if (sched.fail(slot.index, *held, std::move(*failure), Clock::now()) ==
        TaskScheduler::Charge::kRetried)
      obs::tally(stats_.tasks_retried, proc_metrics().tasks_retried);
    else
      obs::tally(stats_.tasks_failed, proc_metrics().tasks_failed);
  }
  if (!sched.undispatched()) return;
  spawn_slot(slot, /*respawn=*/true);
  dispatch(slot, sched, inputs);
}

void Supervisor::reap_idle() {
  for (Slot& slot : slots_) {
    if (!slot.worker) continue;
    int status = 0;
    if (waitpid(slot.worker->pid(), &status, WNOHANG) == slot.worker->pid())
      (void)bury(slot, status, /*told=*/false);
  }
}

std::vector<TaskOutcome> Supervisor::run(std::size_t num_tasks) {
  return run(std::vector<std::string>(num_tasks));
}

std::vector<TaskOutcome> Supervisor::run(
    const std::vector<std::string>& inputs) {
  if (inputs.empty()) return {};

  const std::size_t workers = std::min(policy_.workers, inputs.size());
  TaskScheduler sched(inputs.size(), workers, policy_.max_task_attempts);
  // A worker that died while idle holds no task: it costs this round
  // only its replacement.
  reap_idle();
  const std::size_t known = slots_.size();
  for (std::size_t s = known; s < workers; ++s) {
    slots_.emplace_back();
    slots_.back().index = s;
  }
  for (std::size_t s = 0; s < workers; ++s)
    if (!slots_[s].worker) spawn_slot(slots_[s], /*respawn=*/s < known);
  for (std::size_t s = 0; s < workers; ++s) dispatch(slots_[s], sched, inputs);

  char buf[4096];
  while (sched.undecided() > 0) {
    if (support::shutdown_requested()) {
      kill_all();
      support::check_shutdown();  // throws ShutdownRequested
    }

    // A task is held by a live worker or waits for one: reap() refills
    // a slot while work waits.
    std::vector<pollfd> fds;
    std::vector<Slot*> fd_slots;
    for (std::size_t s = 0; s < workers; ++s) {
      Slot& slot = slots_[s];
      if (!slot.worker) continue;
      fds.push_back({slot.worker->read_fd(), POLLIN, 0});
      fd_slots.push_back(&slot);
    }
    PEAK_CHECK(!fds.empty(), "supervisor round has work but no worker");

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
          while (auto payload = slot.reader.next()) {
            try {
              core::jsonl::JsonParser parser(*payload);
              const core::jsonl::JsonValue frame = parser.parse();
              if (frame.at("op").as_string() == "result" &&
                  sched.complete(slot.index, frame.at("task").as_u64(),
                                 frame.at("payload").as_string())) {
                ++slot.tasks_done;
                if (policy_.update_worker_table)
                  WorkerTable::global().idle(slot.index);
                dispatch(slot, sched, inputs);
              }
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
        reap(slot, sched, inputs);  // n == 0 (EOF) or hard read error
        continue;
      }
      if (revents & (POLLHUP | POLLERR | POLLNVAL)) {
        reap(slot, sched, inputs);
        continue;
      }
    }

    // Watchdog sweep: per-dispatch deadline with SIGTERM → SIGKILL
    // escalation. Only a worker holding a task can be stalled.
    for (std::size_t s = 0; s < workers; ++s) {
      Slot& slot = slots_[s];
      if (!slot.worker || !sched.held(slot.index)) continue;
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
  }
  return sched.take_outcomes();
}

}  // namespace peak::proc
