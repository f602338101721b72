#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/peak.hpp"
#include "core/session.hpp"
#include "core/tuning_driver.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker_agent.hpp"
#include "fault/injector.hpp"
#include "proc/protocol.hpp"
#include "support/check.hpp"
#include "support/shutdown.hpp"
#include "support/tcp.hpp"
#include "workloads/workload.hpp"

namespace peak::dist {
namespace {

/// Acceptance tests of distributed tuning: a coordinator fanning rounds
/// out over real TCP worker agents (in-process threads, loopback
/// sockets) must produce a TuningOutcome and journal bit-identical to
/// `--search-threads N` — including when a worker dies mid-run, when the
/// run is interrupted and resumed, and when every worker keeps crashing
/// on the same task.
class DistTuningTest : public ::testing::Test {
protected:
  void SetUp() override { support::reset_shutdown(); }
  void TearDown() override { support::reset_shutdown(); }

  /// The driver-level scenario: train trace 42 and effect seed 0x9eac
  /// on sparc2.
  static core::SessionSpec spec_for(const std::string& benchmark) {
    return {.benchmark = benchmark,
            .machine = "sparc2",
            .trace_seed = 42,
            .effect_seed = 0x9eac};
  }

  static core::Session setup(const std::string& name) {
    return core::Session(spec_for(name));
  }

  /// The driver is built from the Session's parts, not by
  /// Session::driver(), which reads the coordinator's spec: the injector
  /// refusal below hands over a coordinator that must never be touched.
  core::TuningOutcome tune(const core::Session& s,
                           const core::DriverOptions& options,
                           rating::Method method) {
    core::TuningDriver driver(s.workload(), s.profile(), s.tune_trace(),
                              s.machine(), s.effects(), options);
    return driver.tune(method);
  }

  /// A loopback fleet of in-process worker agents dialing the
  /// coordinator; joins them all on destruction.
  struct Fleet {
    std::vector<std::thread> threads;
    std::vector<int> statuses;

    // Threads write statuses[index] concurrently with later add()s;
    // pre-reserving keeps push_back from relocating live slots.
    Fleet() { statuses.reserve(16); }

    void add(std::uint16_t port, WorkerOptions options) {
      const std::size_t index = statuses.size();
      statuses.push_back(-1);
      options.connect_host = "127.0.0.1";
      options.connect_port = port;
      threads.emplace_back([this, index, options] {
        WorkerAgent agent(options);
        statuses[index] = agent.run();
      });
    }

    void join() {
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }

    ~Fleet() { join(); }
  };

  /// Coordinator listening on an ephemeral loopback port with `workers`
  /// agents connected and ready.
  std::unique_ptr<Coordinator> form_fleet(const core::SessionSpec& spec,
                                          Fleet& fleet, std::size_t workers,
                                          std::uint64_t max_tasks_first = 0) {
    DistPolicy policy;
    policy.min_workers = workers;
    policy.update_worker_table = false;
    auto coordinator = std::make_unique<Coordinator>(spec, policy);
    std::string error;
    if (!coordinator->listen(0, /*loopback_only=*/true, &error)) {
      ADD_FAILURE() << error;
      return nullptr;
    }
    for (std::size_t i = 0; i < workers; ++i) {
      WorkerOptions wo;
      wo.name = "w" + std::to_string(i);
      if (i == 0) wo.max_tasks = max_tasks_first;
      fleet.add(coordinator->port(), wo);
    }
    if (!coordinator->wait_for_fleet(&error)) {
      ADD_FAILURE() << error;
      return nullptr;
    }
    return coordinator;
  }

  static std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }
};

TEST_F(DistTuningTest, OutcomeAndJournalBitIdenticalToThreaded) {
  const core::Session s = setup("SWIM");
  core::DriverOptions threaded;
  threaded.search_threads = 2;
  threaded.fault.journal_path = temp_path("peak_dist_journal_t2.jsonl");
  const core::TuningOutcome baseline =
      tune(s, threaded, rating::Method::kCBR);

  core::DriverOptions distributed;
  distributed.search_threads = 2;
  distributed.fault.journal_path = temp_path("peak_dist_journal_d2.jsonl");
  Fleet fleet;
  auto coordinator =
      form_fleet(spec_for("SWIM"), fleet, 2);
  ASSERT_NE(coordinator, nullptr);
  distributed.coordinator = coordinator.get();
  EXPECT_EQ(tune(s, distributed, rating::Method::kCBR), baseline);

  const std::string a = slurp(threaded.fault.journal_path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(distributed.fault.journal_path));
  EXPECT_GE(coordinator->stats().tasks_dispatched, 1u);
  EXPECT_EQ(coordinator->stats().tasks_failed, 0u);

  // Graceful shutdown: every agent gets a bye frame and exits 0.
  coordinator->shutdown();
  fleet.join();
  for (int status : fleet.statuses) EXPECT_EQ(status, 0);
}

TEST_F(DistTuningTest, DistMatchesThreadedForRbrToo) {
  const core::Session s = setup("ART");
  core::DriverOptions threaded;
  threaded.search_threads = 3;
  const core::TuningOutcome baseline =
      tune(s, threaded, rating::Method::kRBR);

  core::DriverOptions distributed;
  distributed.search_threads = 3;
  Fleet fleet;
  auto coordinator =
      form_fleet(spec_for("ART"), fleet, 3);
  ASSERT_NE(coordinator, nullptr);
  distributed.coordinator = coordinator.get();
  EXPECT_EQ(tune(s, distributed, rating::Method::kRBR), baseline);
  coordinator->shutdown();
}

TEST_F(DistTuningTest, WorkerDyingMidRunStaysBitIdentical) {
  const core::Session s = setup("SWIM");
  core::DriverOptions threaded;
  threaded.search_threads = 2;
  const core::TuningOutcome baseline =
      tune(s, threaded, rating::Method::kRBR);

  // Worker 0 drops its socket abruptly (no bye) after three completed
  // tasks — a real mid-round death. Its queued and in-flight tasks must
  // requeue onto the survivor and the outcome must not change.
  core::DriverOptions distributed;
  distributed.search_threads = 2;
  Fleet fleet;
  auto coordinator = form_fleet(spec_for("SWIM"), fleet, 2,
                                /*max_tasks_first=*/3);
  ASSERT_NE(coordinator, nullptr);
  distributed.coordinator = coordinator.get();
  EXPECT_EQ(tune(s, distributed, rating::Method::kRBR), baseline);
  EXPECT_GE(coordinator->stats().workers_lost, 1u);
  EXPECT_GE(coordinator->stats().tasks_requeued, 1u);
  EXPECT_EQ(coordinator->stats().tasks_failed, 0u);
  coordinator->shutdown();
  fleet.join();
  // The abrupt death is the hook doing its job, not an agent error.
  for (int status : fleet.statuses) EXPECT_EQ(status, 0);
}

TEST_F(DistTuningTest, DeterministicCrasherFailsAfterMaxAttempts) {
  // Three fake workers in sequence, each accepting the session and then
  // dropping dead on its first task: the task burns one attempt per
  // corpse and comes back permanently failed after max_task_attempts,
  // with one recorded failure per attempt.
  const core::SessionSpec spec = spec_for("SWIM");
  DistPolicy policy;
  policy.min_workers = 1;
  policy.max_task_attempts = 3;
  policy.update_worker_table = false;
  policy.connect_timeout = std::chrono::milliseconds(5'000);
  Coordinator coordinator(spec, policy);
  std::string error;
  ASSERT_TRUE(coordinator.listen(0, /*loopback_only=*/true, &error))
      << error;

  // Fake workers speak just enough protocol: hello, ready on session,
  // then close the socket the moment a task arrives.
  std::thread corpses([port = coordinator.port()] {
    for (int i = 0; i < 3; ++i) {
      std::string err;
      const int fd = support::tcp_connect("127.0.0.1", port, 2000, &err);
      if (fd < 0) return;
      proc::write_frame(fd, hello_frame("corpse"));
      proc::FrameReader reader;
      bool dead = false;
      while (!dead) {
        char buf[4096];
        const ssize_t got = ::read(fd, buf, sizeof buf);
        if (got <= 0) break;
        reader.feed(buf, static_cast<std::size_t>(got));
        while (auto frame = reader.next()) {
          const auto record = parse_frame(*frame);
          if (frame_op(record) == "session") {
            proc::write_frame(fd, ready_frame());
          } else if (frame_op(record) == "task") {
            dead = true;  // keel over instead of answering
            break;
          }
        }
      }
      ::close(fd);
    }
  });

  ASSERT_TRUE(coordinator.wait_for_fleet(&error)) << error;
  core::MemberTask task;
  task.base_key = search::o3_config(search::gcc33_o3_space()).key();
  task.cfg_key = task.base_key;
  task.prologue = true;
  const std::vector<proc::TaskOutcome> outcomes =
      coordinator.run_round({task});
  corpses.join();

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, 3u);
  ASSERT_EQ(outcomes[0].failures.size(), 3u);
  for (const proc::WorkerFailure& f : outcomes[0].failures)
    EXPECT_EQ(f.signature, outcomes[0].failures[0].signature);
  EXPECT_EQ(coordinator.stats().tasks_failed, 1u);
  EXPECT_GE(coordinator.stats().workers_lost, 3u);
  coordinator.shutdown();
}

TEST_F(DistTuningTest, InterruptedDistributedTuneResumesBitIdentical) {
  // Kill-the-coordinator drill: a shutdown request surfaces between
  // rounds (rounds drain first), the journal stays resumable, and a
  // plain single-machine --resume lands on the bit-identical outcome.
  const core::Session s = setup("SWIM");
  core::DriverOptions plain;
  plain.search_threads = 2;
  const core::TuningOutcome baseline =
      tune(s, plain, rating::Method::kCBR);

  const std::string path = temp_path("peak_dist_resume.jsonl");
  core::DriverOptions interrupted;
  interrupted.search_threads = 2;
  interrupted.fault.journal_path = path;
  Fleet fleet;
  auto coordinator =
      form_fleet(spec_for("SWIM"), fleet, 2);
  ASSERT_NE(coordinator, nullptr);
  interrupted.coordinator = coordinator.get();
  support::request_shutdown();
  EXPECT_THROW(tune(s, interrupted, rating::Method::kCBR),
               support::ShutdownRequested);
  support::reset_shutdown();
  // The CLI calls shutdown() while unwinding; agents exit 0 via bye.
  coordinator->shutdown();
  fleet.join();
  for (int status : fleet.statuses) EXPECT_EQ(status, 0);

  core::DriverOptions resume;
  resume.search_threads = 2;
  resume.fault.journal_path = path;
  resume.fault.resume = true;
  EXPECT_EQ(tune(s, resume, rating::Method::kCBR), baseline);
  std::remove(path.c_str());
}

TEST_F(DistTuningTest, DistributedModeRefusesFaultInjector) {
  const core::Session s = setup("SWIM");
  fault::FaultInjector injector;
  core::DriverOptions options;
  options.search_threads = 1;
  options.fault.injector = &injector;
  // Any non-null coordinator trips the refusal before it is ever
  // touched, so a dangling-but-unused pointer is fine here.
  options.coordinator = reinterpret_cast<Coordinator*>(0x1);
  EXPECT_THROW(tune(s, options, rating::Method::kCBR),
               support::CheckError);
}

TEST_F(DistTuningTest, PeakOverAFleetRatesTheSessionItWasHanded) {
  // The fleet is formed with the spec of the Session Peak::tune builds
  // (its seed-derived traces and effect model), so every remote rating
  // is the one the in-process run makes.
  for (const char* benchmark : {"SWIM", "MGRID"}) {
    SCOPED_TRACE(benchmark);
    const auto workload = workloads::make_workload(benchmark);
    core::PeakOptions options;
    options.driver.search_threads = 2;
    const core::MethodRun local = core::Peak(sim::sparc2(), options)
                                      .tune(*workload, rating::Method::kCBR);

    Fleet fleet;
    auto coordinator = form_fleet(
        core::session_spec(options, benchmark, "sparc2"), fleet, 2);
    ASSERT_NE(coordinator, nullptr);
    options.driver.coordinator = coordinator.get();
    const core::MethodRun remote = core::Peak(sim::sparc2(), options)
                                       .tune(*workload, rating::Method::kCBR);
    EXPECT_EQ(remote.method, local.method);
    EXPECT_EQ(remote.best_config, local.best_config);
    EXPECT_EQ(remote.cost, local.cost);
    EXPECT_EQ(remote.ref_improvement_pct, local.ref_improvement_pct);
    EXPECT_EQ(remote.exhausted_fraction, local.exhausted_fraction);
    EXPECT_GE(coordinator->stats().tasks_dispatched, 1u);
    coordinator->shutdown();
  }
}

TEST_F(DistTuningTest, PeakRefusesAFleetFormedForAnotherScenario) {
  // A fleet rebuilding train trace 42 would rate another scenario than
  // Peak's seed-derived one: refused before any task ships.
  const auto workload = workloads::make_workload("SWIM");
  Fleet fleet;
  auto coordinator = form_fleet(spec_for("SWIM"), fleet, 1);
  ASSERT_NE(coordinator, nullptr);
  core::PeakOptions options;
  options.driver.coordinator = coordinator.get();
  EXPECT_THROW(core::Peak(sim::sparc2(), options)
                   .tune(*workload, rating::Method::kCBR),
               support::CheckError);
  EXPECT_EQ(coordinator->stats().tasks_dispatched, 0u);
  coordinator->shutdown();
}

}  // namespace
}  // namespace peak::dist
