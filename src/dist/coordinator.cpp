#include "dist/coordinator.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>

#include "dist/protocol.hpp"
#include "obs/metrics.hpp"
#include "proc/worker_table.hpp"
#include "support/check.hpp"

namespace peak::dist {

namespace {

using Clock = std::chrono::steady_clock;

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

/// One connected agent. A ready agent is one slot of the round's
/// scheduler and holds at most one task (one outstanding task per worker
/// keeps requeue loss bounded to one rating).
struct Coordinator::Worker {
  int fd = -1;
  std::size_t slot = 0;
  std::string label;  ///< agent name, or peer "host:port"
  proc::FrameReader reader;
  enum class State { kHello, kSession, kReady } state = State::kHello;
  std::size_t round_slot = 0;  ///< scheduler slot while kReady in a round
  Clock::time_point last_seen{};
  std::uint64_t tasks_done = 0;
};

Coordinator::Coordinator(core::SessionSpec spec, DistPolicy policy)
    : spec_(std::move(spec)), policy_(policy) {
  proc::ignore_sigpipe_once();  // a vanished worker is a write error
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
    if (w->state == Worker::State::kReady) ++n;
  return n;
}

bool Coordinator::wait_for_fleet(std::string* error) {
  const Clock::time_point deadline = Clock::now() + policy_.connect_timeout;
  while (fleet_size() < policy_.min_workers) {
    // Dialed workers that all died cannot come back: fail at once.
    if (Clock::now() >= deadline ||
        (workers_.empty() && !listener_.listening())) {
      if (error)
        *error = "fleet formation failed: " +
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
  if (op == "hello" && w.state == Worker::State::kHello) {
    const std::uint64_t version = record.at("version").as_u64();
    if (version != kDistProtocolVersion) {
      proc::write_frame(w.fd, refuse_frame(
          "protocol version " + std::to_string(version) +
          " != " + std::to_string(kDistProtocolVersion)));
      fail_worker(w, proc::ExitClass::kNonzero, "version");
      return;
    }
    const std::string name = record.at("name").as_string();
    if (!name.empty()) w.label = name;
    if (!proc::write_frame(w.fd, session_frame(spec_))) {
      fail_worker(w, proc::ExitClass::kSignal, "disconnect");
      return;
    }
    w.state = Worker::State::kSession;
  } else if (op == "ready" && w.state == Worker::State::kSession) {
    w.state = Worker::State::kReady;
    if (round_) w.round_slot = round_->join();  // steals from the round
    obs::tally(stats_.workers_connected, DistMetrics::get().connected);
    if (fleet_formed_)
      obs::tally(stats_.workers_respawned, DistMetrics::get().respawned);
    if (policy_.update_worker_table) {
      proc::WorkerTable::global().spawned(w.slot, /*pid=*/0,
                                          /*respawn=*/false);
      proc::WorkerTable::global().set_label(w.slot, w.label);
      proc::WorkerTable::global().idle(w.slot);
    }
  } else if (op == "hb") {
    // last_seen already refreshed above.
  } else if ((op == "result" || op == "err") && round_ &&
             w.state == Worker::State::kReady) {
    // Answers only for the held task; anything else is a broken peer.
    const std::uint64_t id = record.at("id").as_u64();
    bool held = false;
    if (op == "result") {
      held = round_->complete(w.round_slot, id,
                              record.at("payload").as_string());
      w.tasks_done += held ? 1 : 0;
    } else {
      // The rating host threw (a malformed task, an unknown scenario):
      // the worker stays in the fleet; the task burns an attempt.
      held = count_charge(
          round_->fail(w.round_slot, id,
                       {.cls = proc::ExitClass::kNonzero, .slot = w.slot,
                        .signature = "task_error"},
                       Clock::now()));
    }
    if (!held) {
      fail_worker(w, proc::ExitClass::kNonzero, "protocol");
      return;
    }
    if (policy_.update_worker_table)
      proc::WorkerTable::global().idle(w.slot);
  } else {
    fail_worker(w, proc::ExitClass::kNonzero, "protocol");
  }
}

bool Coordinator::count_charge(proc::TaskScheduler::Charge charge) {
  using Charge = proc::TaskScheduler::Charge;
  if (charge == Charge::kRetried)
    obs::tally(stats_.tasks_requeued, DistMetrics::get().requeued);
  if (charge == Charge::kGaveUp)
    obs::tally(stats_.tasks_failed, DistMetrics::get().failed);
  return charge != Charge::kRejected;
}

void Coordinator::fail_worker(Worker& w, proc::ExitClass cls,
                              const std::string& signature) {
  if (w.fd < 0) return;  // already dropped
  if (w.state == Worker::State::kReady) {
    if (round_) {
      // Survivors steal its queue: counted as requeued, like its task.
      obs::tally(stats_.tasks_requeued, DistMetrics::get().requeued,
                 round_->queue(w.round_slot).size());
      if (const auto held = round_->held(w.round_slot))
        count_charge(round_->fail(
            w.round_slot, *held,
            {.cls = cls, .slot = w.slot, .signature = signature},
            Clock::now()));
    }
    obs::tally(stats_.workers_lost, DistMetrics::get().lost);
    if (signature == "heartbeat")
      obs::tally(stats_.heartbeat_gaps, DistMetrics::get().heartbeat_gaps);
    if (policy_.update_worker_table)
      proc::WorkerTable::global().died(w.slot, signature);
  }
  ::close(w.fd);
  w.fd = -1;
}

void Coordinator::dispatch_idle(
    const std::vector<core::MemberTask>& tasks) {
  for (const auto& wp : workers_) {
    Worker& w = *wp;
    if (w.state != Worker::State::kReady || round_->held(w.round_slot))
      continue;
    const auto next = round_->dispatch(w.round_slot, Clock::now());
    if (!next) break;  // no undispatched work for any idle worker
    if (!proc::write_frame(w.fd, task_frame(next->task,
                                            static_cast<unsigned>(
                                                next->attempt),
                                            tasks[next->task]))) {
      fail_worker(w, proc::ExitClass::kSignal, "disconnect");
      continue;
    }
    obs::tally(stats_.tasks_dispatched, DistMetrics::get().dispatched);
    if (policy_.update_worker_table)
      proc::WorkerTable::global().running(w.slot, next->task);
  }
}

void Coordinator::check_deadlines() {
  const Clock::time_point now = Clock::now();
  for (const auto& w : workers_) {
    // Handshaking workers are silent while they rebuild and profile the
    // scenario, so they get the (longer) connect deadline; agents start
    // heartbeating right after hello, so this rarely matters in practice.
    const bool ready = w->state == Worker::State::kReady;
    const auto quiet_limit =
        ready ? policy_.heartbeat_timeout
              : std::max(policy_.connect_timeout, policy_.heartbeat_timeout);
    if (ready && round_ &&
        round_->stalled(w->round_slot, now, policy_.stall_timeout))
      fail_worker(*w, proc::ExitClass::kTimeout, "timeout");
    else if (now - w->last_seen > quiet_limit)
      fail_worker(*w, proc::ExitClass::kTimeout, "heartbeat");
  }
}

void Coordinator::pump(int wait_ms) {
  accept_pending();
  std::vector<pollfd> fds;
  if (listener_.listening())
    fds.push_back({listener_.fd(), POLLIN, 0});
  const std::size_t base = fds.size();
  for (const auto& w : workers_) fds.push_back({w->fd, POLLIN, 0});
  if (fds.empty()) return;
  const int n = ::poll(fds.data(), fds.size(), wait_ms);
  check_deadlines();
  if (n > 0 && base == 1 && (fds[0].revents & POLLIN) != 0)
    accept_pending();
  // workers_[i] still owns fds[base + i]: a dropped worker stays until
  // the end of the pass, and accept_pending() only appends.
  for (std::size_t i = 0; n > 0 && base + i < fds.size(); ++i) {
    Worker& w = *workers_[i];
    if (w.fd < 0 ||
        (fds[base + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
      continue;
    char buf[65536];
    const ssize_t got = ::read(w.fd, buf, sizeof buf);
    if (got <= 0) {
      fail_worker(w, proc::ExitClass::kSignal, "disconnect");
      continue;
    }
    w.reader.feed(buf, static_cast<std::size_t>(got));
    while (w.fd >= 0) {  // until handle_frame drops the worker
      const auto payload = w.reader.next();
      if (!payload) break;
      try {
        handle_frame(w, *payload);
      } catch (const support::CheckError&) {
        // Malformed JSON or a missing field: the peer is broken.
        fail_worker(w, proc::ExitClass::kNonzero, "protocol");
      }
    }
    if (w.reader.corrupted())
      fail_worker(w, proc::ExitClass::kNonzero, "corrupt");
  }
  // Forget the workers dropped here and by the last dispatch_idle().
  std::erase_if(workers_, [](const auto& w) { return w->fd < 0; });
}

std::vector<proc::TaskOutcome> Coordinator::run_round(
    const std::vector<core::MemberTask>& tasks) {
  if (tasks.empty()) return {};

  // Static schedule over the fleet at round start: task i → ready
  // worker i mod W, in join order (workers_ is join-ordered; with no
  // fleet yet, the first joiner drains the pool). Between rounds the
  // coordinator was not draining sockets, so buffered heartbeats must
  // not read as gaps: every clock starts fresh here.
  std::size_t ready = 0;
  for (const auto& w : workers_) {
    w->last_seen = Clock::now();
    if (w->state == Worker::State::kReady) w->round_slot = ready++;
  }
  round_.emplace(tasks.size(), ready, policy_.max_task_attempts);

  Clock::time_point fleet_lost_at{};
  while (round_->undecided() > 0) {
    if (fleet_size() == 0) {
      // The whole fleet is gone. A replacement can only come through the
      // listener or a handshake in progress: give it connect_timeout,
      // or give up at once when there is neither (a dialed fleet).
      if (fleet_lost_at == Clock::time_point{})
        fleet_lost_at = Clock::now();
      if ((!listener_.listening() && workers_.empty()) ||
          Clock::now() - fleet_lost_at >= policy_.connect_timeout) {
        const std::size_t undone = round_->undecided();
        round_.reset();
        throw FleetLost("dist: all workers lost and none rejoined; " +
                        std::to_string(undone) + " tasks undone");
      }
    } else {
      fleet_lost_at = Clock::time_point{};
    }
    dispatch_idle(tasks);
    pump(50);
  }
  std::vector<proc::TaskOutcome> outcomes = round_->take_outcomes();
  round_.reset();
  return outcomes;
}

void Coordinator::shutdown() {
  for (const auto& w : workers_) {
    proc::write_frame(w->fd, bye_frame());
    ::close(w->fd);
    if (policy_.update_worker_table && w->state == Worker::State::kReady)
      proc::WorkerTable::global().finished(w->slot, w->tasks_done);
  }
  workers_.clear();
  listener_.close();
}

}  // namespace peak::dist
