#include "dist_sweep.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "core/session.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker_agent.hpp"
#include "obs/export.hpp"
#include "workloads/workload.hpp"

namespace peak::bench {

namespace {

using clock_type = std::chrono::steady_clock;

constexpr const char* kBenchmark = "SWIM";
constexpr unsigned kBaselineThreads = 2;

core::TuningOutcome tune_once(const core::Session& s,
                              const core::DriverOptions& options) {
  return s.driver(options).tune(rating::Method::kCBR);
}

/// A loopback fleet of in-process worker agents dialing the coordinator;
/// joins them all on destruction.
struct Fleet {
  std::vector<std::thread> threads;
  std::vector<int> statuses;

  // Threads write statuses[index] concurrently with later add()s;
  // pre-reserving keeps push_back from relocating live slots.
  Fleet() { statuses.reserve(16); }

  void add(std::uint16_t port, dist::WorkerOptions options) {
    const std::size_t index = statuses.size();
    statuses.push_back(-1);
    options.connect_host = "127.0.0.1";
    options.connect_port = port;
    threads.emplace_back([this, index, options] {
      dist::WorkerAgent agent(options);
      statuses[index] = agent.run();
    });
  }

  void join() {
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }

  [[nodiscard]] bool all_exited_cleanly() const {
    for (int status : statuses)
      if (status != 0) return false;
    return !statuses.empty();
  }

  ~Fleet() { join(); }
};

/// One distributed tune of the sweep scenario against `baseline`. The
/// first worker can be rigged to drop its socket after `max_tasks_first`
/// completed tasks, and `late_joiner` dials one extra agent in after the
/// fleet has formed (counted by the coordinator as a respawn).
DistArm run_arm(const core::Session& s, const core::TuningOutcome& baseline,
                const std::string& mode, unsigned workers,
                std::uint64_t max_tasks_first, bool late_joiner) {
  DistArm arm;
  arm.mode = mode;
  arm.workers = workers;

  core::DriverOptions options;
  options.search_threads = kBaselineThreads;
  dist::DistPolicy policy;
  policy.min_workers = workers;
  policy.update_worker_table = false;
  dist::Coordinator coordinator(s.spec(), policy);
  std::string error;
  if (!coordinator.listen(0, /*loopback_only=*/true, &error)) {
    std::fprintf(stderr, "dist sweep: listen failed: %s\n", error.c_str());
    return arm;  // completed=false fails the JSON gate loudly
  }

  Fleet fleet;
  for (unsigned i = 0; i < workers; ++i) {
    dist::WorkerOptions wo;
    wo.name = "w" + std::to_string(i);
    if (i == 0) wo.max_tasks = max_tasks_first;
    fleet.add(coordinator.port(), wo);
  }
  if (!coordinator.wait_for_fleet(&error)) {
    std::fprintf(stderr, "dist sweep: fleet failed to form: %s\n",
                 error.c_str());
    return arm;
  }
  // Dials after the fleet formed, so its handshake (served by the event
  // loop inside the first rounds) registers as a respawn.
  if (late_joiner) {
    dist::WorkerOptions wo;
    wo.name = "spare";
    fleet.add(coordinator.port(), wo);
  }

  options.coordinator = &coordinator;
  const clock_type::time_point t0 = clock_type::now();
  try {
    arm.identical = tune_once(s, options) == baseline;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist sweep: %s arm died: %s\n", mode.c_str(),
                 e.what());
    coordinator.shutdown();
    return arm;
  }
  arm.wall_s =
      std::chrono::duration<double>(clock_type::now() - t0).count();

  const dist::CoordinatorStats& stats = coordinator.stats();
  arm.tasks_dispatched = stats.tasks_dispatched;
  arm.tasks_requeued = stats.tasks_requeued;
  arm.workers_lost = stats.workers_lost;
  arm.workers_respawned = stats.workers_respawned;
  coordinator.shutdown();
  fleet.join();
  arm.completed = fleet.all_exited_cleanly();
  return arm;
}

}  // namespace

DistSweepResult run_dist_sweep() {
  DistSweepResult result;
  result.benchmark = kBenchmark;
  result.baseline_threads = kBaselineThreads;

  // Train trace 42 and effect seed 0x9eac on sparc2: the scenario the
  // committed baseline was measured in.
  const core::Session s(core::SessionSpec{.benchmark = kBenchmark,
                                          .machine = "sparc2",
                                          .trace_seed = 42,
                                          .effect_seed = 0x9eac});
  core::DriverOptions threaded;
  threaded.search_threads = kBaselineThreads;
  const clock_type::time_point t0 = clock_type::now();
  const core::TuningOutcome baseline = tune_once(s, threaded);
  result.baseline_wall_s =
      std::chrono::duration<double>(clock_type::now() - t0).count();

  for (unsigned workers : {1u, 2u, 4u})
    result.arms.push_back(run_arm(s, baseline, "fleet", workers,
                                  /*max_tasks_first=*/0,
                                  /*late_joiner=*/false));
  // The robustness arm: the fleet's only worker keels over (no bye)
  // after three tasks while a spare dials in late. The run cannot finish
  // until the spare's handshake completes, so the loss, the requeue, and
  // the respawn are all guaranteed to fire — and the outcome must still
  // not move.
  result.arms.push_back(run_arm(s, baseline, "kill", /*workers=*/1,
                                /*max_tasks_first=*/3,
                                /*late_joiner=*/true));

  std::size_t identical = 0;
  for (const DistArm& arm : result.arms) {
    identical += arm.identical;
    result.total_requeued += arm.tasks_requeued;
    result.total_respawned += arm.workers_respawned;
  }
  result.identity_rate =
      result.arms.empty()
          ? 0.0
          : static_cast<double>(identical) /
                static_cast<double>(result.arms.size());
  return result;
}

void print_dist_sweep(const DistSweepResult& result, std::ostream& os) {
  char head[160];
  std::snprintf(head, sizeof head,
                "Distributed tuning sweep (%s, CBR, loopback TCP fleet vs "
                "--search-threads %u at %.3fs):\n",
                result.benchmark.c_str(), result.baseline_threads,
                result.baseline_wall_s);
  os << head;
  for (const DistArm& arm : result.arms) {
    char line[200];
    std::snprintf(
        line, sizeof line,
        "  %-5s %u workers  %.3fs  %-9s %-9s %llu dispatched, %llu "
        "requeued, %llu lost, %llu respawned\n",
        arm.mode.c_str(), arm.workers, arm.wall_s,
        arm.completed ? "completed" : "DIED",
        arm.identical ? "identical" : "DIFFERS",
        static_cast<unsigned long long>(arm.tasks_dispatched),
        static_cast<unsigned long long>(arm.tasks_requeued),
        static_cast<unsigned long long>(arm.workers_lost),
        static_cast<unsigned long long>(arm.workers_respawned));
    os << line;
  }
  char summary[160];
  std::snprintf(summary, sizeof summary,
                "  identity %.0f%%  (%llu tasks requeued, %llu workers "
                "respawned)\n",
                100.0 * result.identity_rate,
                static_cast<unsigned long long>(result.total_requeued),
                static_cast<unsigned long long>(result.total_respawned));
  os << summary;
}

void write_dist_sweep_fragment(std::ostream& os,
                               const DistSweepResult& result) {
  os << "{\"benchmark\":\"" << obs::json_escape(result.benchmark)
     << "\",\"baseline_threads\":" << result.baseline_threads
     << ",\"baseline_wall_s\":" << result.baseline_wall_s << ",\"arms\":[";
  bool first = true;
  for (const DistArm& arm : result.arms) {
    if (!first) os << ",";
    first = false;
    os << "{\"mode\":\"" << obs::json_escape(arm.mode)
       << "\",\"workers\":" << arm.workers << ",\"wall_s\":" << arm.wall_s
       << ",\"completed\":" << (arm.completed ? "true" : "false")
       << ",\"outcome_identical\":" << (arm.identical ? "true" : "false")
       << ",\"tasks_dispatched\":" << arm.tasks_dispatched
       << ",\"tasks_requeued\":" << arm.tasks_requeued
       << ",\"workers_lost\":" << arm.workers_lost
       << ",\"workers_respawned\":" << arm.workers_respawned << "}";
  }
  os << "],\"summary\":{\"identity_rate\":" << result.identity_rate
     << ",\"tasks_requeued\":" << result.total_requeued
     << ",\"workers_respawned\":" << result.total_respawned << "}}";
}

bool write_dist_sweep_json(const std::string& path,
                           const DistSweepResult& result) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"bench\":\"dist_sweep\",\"schema\":1,\"dist_sweep\":";
  write_dist_sweep_fragment(os, result);
  os << "}\n";
  return static_cast<bool>(os);
}

}  // namespace peak::bench
