#pragma once

/// \file coordinator.hpp
/// Coordinator side of distributed tuning (`peak::dist`). The tuning
/// driver hands it one batch round at a time (run_round); it fans the
/// member tasks out over a fleet of TCP worker agents and returns one
/// proc::TaskOutcome per task in canonical task order — the same
/// contract proc::Supervisor::run() gives the isolated path, so the
/// driver merges both transports with identical code and the
/// TuningOutcome stays bit-identical to `--search-threads N` for any
/// fleet size and any death schedule.
///
/// The round's proc::TaskScheduler makes every scheduling decision; the
/// coordinator owns the I/O: the handshake, the listener, heartbeat
/// liveness, and dropping a worker that dies, goes quiet, stalls, or
/// sends a frame it has no business sending (signature "protocol").
///
/// Single-threaded and poll-driven: every public call runs the event
/// loop inline on the caller's thread (the driver is blocked on the
/// round anyway), so there is no locking and no background thread to
/// wind down. New workers may join mid-round — the listener fd sits in
/// the poll set — and immediately steal queued work.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "proc/protocol.hpp"
#include "proc/task_scheduler.hpp"
#include "support/check.hpp"
#include "support/tcp.hpp"

namespace peak::dist {

/// Fleet-management knobs. The defaults suit loopback tests and LAN
/// fleets; WAN fleets mostly want a larger heartbeat_timeout.
struct DistPolicy {
  /// A worker silent for longer than this (no frame of any kind; agents
  /// heartbeat every ~100ms) is declared dead.
  std::chrono::milliseconds heartbeat_timeout{2'000};
  /// Per-dispatch deadline: a worker holding one task longer than this
  /// is stalled, its connection is dropped, and the task requeues.
  std::chrono::milliseconds stall_timeout{30'000};
  /// Attempts per task before it is reported permanently failed (the
  /// driver then quarantines deterministic crashers).
  std::size_t max_task_attempts = 3;
  /// wait_for_fleet() returns once this many workers finished the
  /// handshake; run_round() also needs at least one live worker.
  std::size_t min_workers = 1;
  /// Deadline for wait_for_fleet(), for dialing a worker endpoint, and
  /// for a mid-round wait when the whole fleet died.
  std::chrono::milliseconds connect_timeout{10'000};
  /// Publish fleet rows to proc::WorkerTable::global() (the /workers
  /// endpoint and --progress); off for throwaway coordinators in tests.
  bool update_worker_table = true;
};

/// run_round() lost every worker and none can join in time: no listener
/// and no handshake in progress, or none ready within connect_timeout.
class FleetLost : public support::CheckError {
public:
  using support::CheckError::CheckError;
};

/// Mirrored into the obs registry (dist.* metrics) as events happen.
struct CoordinatorStats {
  std::uint64_t workers_connected = 0;  ///< completed handshakes, total
  std::uint64_t workers_lost = 0;
  /// Handshakes completed after the fleet first formed — replacements
  /// and late joiners.
  std::uint64_t workers_respawned = 0;
  std::uint64_t tasks_dispatched = 0;
  /// Tasks moved off a dead worker (its in-flight dispatch and its
  /// undispatched queue) back onto survivors.
  std::uint64_t tasks_requeued = 0;
  std::uint64_t tasks_failed = 0;  ///< permanent, after max attempts
  std::uint64_t heartbeat_gaps = 0;
};

class Coordinator {
public:
  /// `spec` is sent to every worker during the handshake; it must
  /// describe the exact scenario the owning driver tunes.
  explicit Coordinator(core::SessionSpec spec, DistPolicy policy = {});
  ~Coordinator();  ///< shutdown() if the caller has not already

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Accept workers on `port` (0 = ephemeral, see port()). Loopback-only
  /// when `loopback_only`; fleets on other machines need all interfaces.
  bool listen(std::uint16_t port, bool loopback_only, std::string* error);

  /// Dial "host:port" worker endpoints (agents in --listen mode). Each
  /// connection still runs the normal handshake. False when any endpoint
  /// is unreachable or malformed.
  bool dial(const std::vector<std::string>& endpoints, std::string* error);

  /// Run the event loop until `min_workers` workers are ready or
  /// connect_timeout passes (false, with a description in *error).
  bool wait_for_fleet(std::string* error);

  /// Execute one batch round; returns one outcome per task, in task
  /// order. The scheduler deals task i to ready worker i mod W, in join
  /// order, and idle workers steal, so the schedule adapts to stragglers
  /// and deaths without affecting results (members are order-independent
  /// by construction). Throws FleetLost when the whole fleet is gone: at
  /// once when no worker can join, else after connect_timeout.
  std::vector<proc::TaskOutcome> run_round(
      const std::vector<core::MemberTask>& tasks);

  /// Graceful fleet shutdown: send every worker a bye frame, close all
  /// connections and the listener. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t fleet_size() const;
  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] const core::SessionSpec& spec() const { return spec_; }

private:
  struct Worker;

  void accept_pending();
  void add_connection(int fd, const std::string& peer);
  /// One poll()+drain pass over listener and workers; `wait_ms` bounds
  /// the block so watchdog checks stay timely.
  void pump(int wait_ms);
  /// Throws support::CheckError on a malformed frame.
  void handle_frame(Worker& w, const std::string& payload);
  void dispatch_idle(const std::vector<core::MemberTask>& tasks);
  void check_deadlines();
  /// Declare a worker dead: the round's scheduler fails its in-flight
  /// task (if any); close the connection. The worker stays in workers_
  /// until the end of the next pump() pass.
  void fail_worker(Worker& w, proc::ExitClass cls,
                   const std::string& signature);
  /// Mirror a failed attempt into the stats; false when rejected.
  bool count_charge(proc::TaskScheduler::Charge charge);

  core::SessionSpec spec_;
  DistPolicy policy_;
  CoordinatorStats stats_;
  support::TcpListener listener_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_slot_ = 0;  ///< join-order slot ids, never reused
  bool fleet_formed_ = false;  ///< flips at first wait_for_fleet success
  /// The current round's task table (engaged inside run_round only).
  std::optional<proc::TaskScheduler> round_;
};

}  // namespace peak::dist
