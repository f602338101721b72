#include "dist/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>

#include "dist/protocol.hpp"
#include "obs/metrics.hpp"
#include "proc/worker_table.hpp"
#include "support/check.hpp"

namespace peak::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// A worker vanishing mid-write must surface as a write error, not kill
/// the coordinator with SIGPIPE.
void ignore_sigpipe_once() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

struct DistMetrics {
  obs::Counter& connected = obs::counter("dist.workers.connected");
  obs::Counter& lost = obs::counter("dist.workers.lost");
  obs::Counter& respawned = obs::counter("dist.workers.respawned");
  obs::Counter& dispatched = obs::counter("dist.tasks.dispatched");
  obs::Counter& requeued = obs::counter("dist.tasks.requeued");
  obs::Counter& failed = obs::counter("dist.tasks.failed");
  obs::Counter& heartbeat_gaps = obs::counter("dist.heartbeat.gaps");

  static DistMetrics& get() {
    static DistMetrics metrics;
    return metrics;
  }
};

}  // namespace

/// One connected agent. `queue` holds this round's undispatched task
/// indices; `current` is the single in-flight dispatch (one outstanding
/// task per worker keeps requeue loss bounded to one rating).
struct Coordinator::Worker {
  int fd = -1;
  std::size_t slot = 0;
  std::string label;  ///< agent name, or peer "host:port"
  proc::FrameReader reader;
  enum class State { kHello, kSession, kReady, kBusy } state = State::kHello;
  std::deque<std::size_t> queue;
  std::size_t current = 0;
  Clock::time_point dispatched_at{};
  Clock::time_point last_seen{};
  std::uint64_t tasks_done = 0;
};

Coordinator::Coordinator(core::SessionSpec spec, DistPolicy policy)
    : spec_(std::move(spec)), policy_(policy) {
  ignore_sigpipe_once();
}

Coordinator::~Coordinator() { shutdown(); }

bool Coordinator::listen(std::uint16_t port, bool loopback_only,
                         std::string* error) {
  return listener_.listen(port, loopback_only, error);
}

bool Coordinator::dial(const std::vector<std::string>& endpoints,
                       std::string* error) {
  for (const std::string& endpoint : endpoints) {
    std::string host;
    std::uint16_t port = 0;
    if (!support::split_host_port(endpoint, &host, &port)) {
      if (error) *error = "bad worker endpoint '" + endpoint + "'";
      return false;
    }
    const int fd = support::tcp_connect(
        host, port, static_cast<int>(policy_.connect_timeout.count()),
        error);
    if (fd < 0) return false;
    add_connection(fd, endpoint);
  }
  return true;
}

void Coordinator::add_connection(int fd, const std::string& peer) {
  auto w = std::make_unique<Worker>();
  w->fd = fd;
  w->slot = next_slot_++;
  w->label = peer;
  w->last_seen = Clock::now();
  workers_.push_back(std::move(w));
}

void Coordinator::accept_pending() {
  if (!listener_.listening()) return;
  std::string peer;
  int fd = -1;
  while ((fd = listener_.accept_ready(&peer)) >= 0)
    add_connection(fd, peer);
}

std::size_t Coordinator::fleet_size() const {
  std::size_t n = 0;
  for (const auto& w : workers_)
    if (w->state == Worker::State::kReady ||
        w->state == Worker::State::kBusy)
      ++n;
  return n;
}

std::vector<Coordinator::Worker*> Coordinator::ready_fleet() {
  std::vector<Worker*> fleet;
  for (const auto& w : workers_)
    if (w->state == Worker::State::kReady ||
        w->state == Worker::State::kBusy)
      fleet.push_back(w.get());
  // workers_ is join-ordered already; keep it explicit.
  std::sort(fleet.begin(), fleet.end(),
            [](const Worker* a, const Worker* b) { return a->slot < b->slot; });
  return fleet;
}

bool Coordinator::wait_for_fleet(std::string* error) {
  const Clock::time_point deadline = Clock::now() + policy_.connect_timeout;
  while (fleet_size() < policy_.min_workers) {
    if (Clock::now() >= deadline) {
      if (error)
        *error = "fleet formation timed out: " +
                 std::to_string(fleet_size()) + "/" +
                 std::to_string(policy_.min_workers) + " workers ready";
      return false;
    }
    pump(50);
  }
  fleet_formed_ = true;
  return true;
}

void Coordinator::handle_frame(Worker& w, const std::string& payload) {
  w.last_seen = Clock::now();
  const core::jsonl::JsonValue record = parse_frame(payload);
  const std::string op = frame_op(record);
  if (op == "hello") {
    const std::uint64_t version = record.at("version").as_u64();
    if (version != kDistProtocolVersion) {
      proc::write_frame(w.fd, refuse_frame(
          "protocol version " + std::to_string(version) +
          " != " + std::to_string(kDistProtocolVersion)));
      fail_worker(w.slot, proc::ExitClass::kNonzero, "version");
      return;
    }
    const std::string name = record.at("name").as_string();
    if (!name.empty()) w.label = name;
    if (!proc::write_frame(w.fd, session_frame(spec_))) {
      fail_worker(w.slot, proc::ExitClass::kSignal, "disconnect");
      return;
    }
    w.state = Worker::State::kSession;
  } else if (op == "ready") {
    w.state = Worker::State::kReady;
    ++stats_.workers_connected;
    DistMetrics::get().connected.inc();
    if (fleet_formed_) {
      ++stats_.workers_respawned;
      DistMetrics::get().respawned.inc();
    }
    if (policy_.update_worker_table) {
      proc::WorkerTable::global().spawned(w.slot, /*pid=*/0,
                                          /*respawn=*/false);
      proc::WorkerTable::global().set_label(w.slot, w.label);
      proc::WorkerTable::global().idle(w.slot);
    }
  } else if (op == "hb") {
    // last_seen already refreshed above.
  } else if (op == "result") {
    const std::uint64_t id = record.at("id").as_u64();
    PEAK_CHECK(round_tasks_ != nullptr && id < round_tasks_->size(),
               "dist: result frame outside a round");
    if (!done_[id]) {
      proc::TaskOutcome& out = (*outcomes_)[id];
      out.ok = true;
      out.payload = record.at("payload").as_string();
      out.attempts = out.failures.size() + 1;
      done_[id] = 1;
      --undecided_;
    }
    w.state = Worker::State::kReady;
    ++w.tasks_done;
    if (policy_.update_worker_table)
      proc::WorkerTable::global().idle(w.slot);
  } else if (op == "err") {
    // The rating host threw (a malformed task, an unknown scenario): the
    // worker is alive and stays in the fleet; the task burns an attempt.
    record_task_failure(w, proc::ExitClass::kNonzero, "task_error");
    w.state = Worker::State::kReady;
    if (policy_.update_worker_table)
      proc::WorkerTable::global().idle(w.slot);
  } else {
    fail_worker(w.slot, proc::ExitClass::kNonzero, "protocol");
  }
}

void Coordinator::record_task_failure(Worker& w, proc::ExitClass cls,
                                      const std::string& signature) {
  if (w.state != Worker::State::kBusy) return;
  PEAK_CHECK(round_tasks_ != nullptr && w.current < round_tasks_->size(),
             "dist: task failure outside a round");
  const std::size_t task = w.current;
  if (done_[task]) return;
  proc::TaskOutcome& out = (*outcomes_)[task];
  proc::WorkerFailure f;
  f.cls = cls;
  f.slot = w.slot;
  f.task = task;
  f.attempt = out.failures.size();
  f.burned_wall_us = std::chrono::duration<double, std::micro>(
                         Clock::now() - w.dispatched_at)
                         .count();
  f.signature = signature;
  out.failures.push_back(std::move(f));
  out.attempts = out.failures.size();
  if (out.failures.size() >= policy_.max_task_attempts) {
    out.ok = false;
    done_[task] = 1;
    --undecided_;
    ++stats_.tasks_failed;
    DistMetrics::get().failed.inc();
  } else {
    requeue_.push_back(task);
    ++stats_.tasks_requeued;
    DistMetrics::get().requeued.inc();
  }
}

void Coordinator::fail_worker(std::size_t slot, proc::ExitClass cls,
                              const std::string& signature) {
  const auto it = std::find_if(
      workers_.begin(), workers_.end(),
      [slot](const auto& w) { return w->slot == slot; });
  if (it == workers_.end()) return;
  Worker& w = **it;
  const bool was_fleet = w.state == Worker::State::kReady ||
                         w.state == Worker::State::kBusy;
  record_task_failure(w, cls, signature);
  // Undispatched work reassigns without burning attempts — the tasks
  // never ran here.
  for (std::size_t task : w.queue) {
    if (done_[task]) continue;
    requeue_.push_back(task);
    ++stats_.tasks_requeued;
    DistMetrics::get().requeued.inc();
  }
  w.queue.clear();
  if (was_fleet) {
    ++stats_.workers_lost;
    DistMetrics::get().lost.inc();
    if (signature == "heartbeat") {
      ++stats_.heartbeat_gaps;
      DistMetrics::get().heartbeat_gaps.inc();
    }
    if (policy_.update_worker_table)
      proc::WorkerTable::global().died(w.slot, signature);
  }
  ::close(w.fd);
  workers_.erase(it);
}

void Coordinator::dispatch_idle() {
  if (round_tasks_ == nullptr) return;
  for (const auto& wp : workers_) {
    Worker& w = *wp;
    if (w.state != Worker::State::kReady) continue;
    // Feed from the worker's own queue, then the requeue pool, then
    // steal from the longest sibling queue — an idle worker never waits
    // while undispatched work exists anywhere.
    std::size_t task = 0;
    bool have = false;
    while (!w.queue.empty()) {
      task = w.queue.front();
      w.queue.pop_front();
      if (!done_[task]) {
        have = true;
        break;
      }
    }
    while (!have && !requeue_.empty()) {
      task = requeue_.front();
      requeue_.pop_front();
      if (!done_[task]) have = true;
    }
    if (!have) {
      Worker* longest = nullptr;
      for (const auto& other : workers_)
        if (other.get() != &w && !other->queue.empty() &&
            (longest == nullptr ||
             other->queue.size() > longest->queue.size()))
          longest = other.get();
      while (longest != nullptr && !longest->queue.empty()) {
        task = longest->queue.back();
        longest->queue.pop_back();
        if (!done_[task]) {
          have = true;
          break;
        }
      }
    }
    if (!have) continue;
    const proc::TaskOutcome& out = (*outcomes_)[task];
    const unsigned attempt = static_cast<unsigned>(out.failures.size());
    if (!proc::write_frame(
            w.fd, task_frame(task, attempt, (*round_tasks_)[task]))) {
      requeue_.push_front(task);
      fail_worker(w.slot, proc::ExitClass::kSignal, "disconnect");
      // workers_ mutated: restart the scan on the next pump pass.
      return;
    }
    w.state = Worker::State::kBusy;
    w.current = task;
    w.dispatched_at = Clock::now();
    ++stats_.tasks_dispatched;
    DistMetrics::get().dispatched.inc();
    if (policy_.update_worker_table)
      proc::WorkerTable::global().running(w.slot, task);
  }
}

void Coordinator::check_deadlines() {
  const Clock::time_point now = Clock::now();
  // Collect first: fail_worker mutates workers_.
  std::vector<std::pair<std::size_t, const char*>> dead;
  for (const auto& w : workers_) {
    // Handshaking workers are silent while they rebuild and profile the
    // scenario, so they get the (longer) connect deadline; agents start
    // heartbeating right after hello, so this rarely matters in practice.
    const bool handshaking = w->state == Worker::State::kHello ||
                             w->state == Worker::State::kSession;
    const auto quiet_limit =
        handshaking ? std::max(policy_.connect_timeout,
                               policy_.heartbeat_timeout)
                    : policy_.heartbeat_timeout;
    if (w->state == Worker::State::kBusy &&
        now - w->dispatched_at > policy_.stall_timeout)
      dead.emplace_back(w->slot, "timeout");
    else if (now - w->last_seen > quiet_limit)
      dead.emplace_back(w->slot, "heartbeat");
  }
  for (const auto& [slot, signature] : dead)
    fail_worker(slot, proc::ExitClass::kTimeout, signature);
}

void Coordinator::pump(int wait_ms) {
  accept_pending();
  std::vector<pollfd> fds;
  std::vector<std::size_t> slots;
  if (listener_.listening())
    fds.push_back({listener_.fd(), POLLIN, 0});
  for (const auto& w : workers_) {
    fds.push_back({w->fd, POLLIN, 0});
    slots.push_back(w->slot);
  }
  if (fds.empty()) return;
  const int n = ::poll(fds.data(), fds.size(), wait_ms);
  check_deadlines();
  if (n <= 0) return;
  const std::size_t base = listener_.listening() ? 1 : 0;
  if (base == 1 && (fds[0].revents & POLLIN) != 0) accept_pending();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if ((fds[base + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
      continue;
    const auto it = std::find_if(
        workers_.begin(), workers_.end(),
        [slot = slots[i]](const auto& w) { return w->slot == slot; });
    if (it == workers_.end()) continue;  // already failed this pass
    Worker& w = **it;
    char buf[65536];
    const ssize_t got = ::read(w.fd, buf, sizeof buf);
    if (got <= 0) {
      fail_worker(w.slot, proc::ExitClass::kSignal, "disconnect");
      continue;
    }
    w.reader.feed(buf, static_cast<std::size_t>(got));
    bool dead = false;
    while (const auto payload = w.reader.next()) {
      handle_frame(w, *payload);
      // handle_frame may have dropped the worker; re-check.
      if (std::find_if(workers_.begin(), workers_.end(),
                       [slot = slots[i]](const auto& x) {
                         return x->slot == slot;
                       }) == workers_.end()) {
        dead = true;
        break;
      }
    }
    if (!dead && w.reader.corrupted())
      fail_worker(w.slot, proc::ExitClass::kNonzero, "corrupt");
  }
}

std::vector<proc::TaskOutcome> Coordinator::run_round(
    const std::vector<core::RemoteMemberTask>& tasks) {
  std::vector<proc::TaskOutcome> outcomes(tasks.size());
  if (tasks.empty()) return outcomes;
  round_tasks_ = &tasks;
  outcomes_ = &outcomes;
  done_.assign(tasks.size(), 0);
  undecided_ = tasks.size();
  requeue_.clear();

  // Static schedule over the fleet at round start: task i → ready
  // worker i mod W, in join order. Between rounds the coordinator was
  // not draining sockets, so buffered heartbeats must not read as gaps:
  // every clock starts fresh here.
  std::vector<Worker*> fleet = ready_fleet();
  for (const auto& w : workers_) w->last_seen = Clock::now();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (fleet.empty())
      requeue_.push_back(i);  // no fleet yet: the first joiner drains it
    else
      fleet[i % fleet.size()]->queue.push_back(i);
  }

  Clock::time_point fleet_lost_at{};
  while (undecided_ > 0) {
    if (fleet_size() == 0) {
      // The whole fleet is gone. Give a replacement connect_timeout to
      // join (the listener stays in the poll set) before giving up.
      if (fleet_lost_at == Clock::time_point{})
        fleet_lost_at = Clock::now();
      PEAK_CHECK(Clock::now() - fleet_lost_at < policy_.connect_timeout,
                 "dist: all workers lost and none rejoined; " +
                     std::to_string(undecided_) + " tasks undone");
    } else {
      fleet_lost_at = Clock::time_point{};
    }
    dispatch_idle();
    pump(50);
  }
  round_tasks_ = nullptr;
  outcomes_ = nullptr;
  // Leftover queue entries (tasks that completed elsewhere first) must
  // not leak into the next round.
  for (const auto& w : workers_) w->queue.clear();
  return outcomes;
}

void Coordinator::shutdown() {
  for (const auto& w : workers_) {
    proc::write_frame(w->fd, bye_frame());
    ::close(w->fd);
    if (policy_.update_worker_table &&
        (w->state == Worker::State::kReady ||
         w->state == Worker::State::kBusy))
      proc::WorkerTable::global().finished(w->slot, w->tasks_done);
  }
  workers_.clear();
  listener_.close();
}

}  // namespace peak::dist
