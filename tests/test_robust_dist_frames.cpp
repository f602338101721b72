#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/peak.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "proc/protocol.hpp"
#include "support/check.hpp"
#include "support/tcp.hpp"

namespace peak::dist {
namespace {

/// The coordinator reads frames from workers it does not control, so a
/// hostile or buggy worker must cost only itself: it is dropped with the
/// signature "protocol", its held task is requeued, and the round ends
/// on a good agent's outcomes. A fleet lost for good must end a round
/// with a typed error, not a spin or an abort.

using namespace std::chrono_literals;

/// Answers one task frame on `fd`; false drops the connection at once.
using OnTask = std::function<bool(int fd, std::uint64_t id)>;

/// A fake agent on a connected socket: hello, ready on session, then
/// `on_task` per task until the coordinator closes or says bye.
void serve_fake(int fd, const OnTask& on_task) {
  proc::write_frame(fd, hello_frame("fake"));
  proc::FrameReader reader;
  bool alive = true;
  while (alive) {
    char buf[4096];
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got <= 0) break;
    reader.feed(buf, static_cast<std::size_t>(got));
    while (alive) {
      const auto frame = reader.next();
      if (!frame) break;
      const core::jsonl::JsonValue record = parse_frame(*frame);
      const std::string op = frame_op(record);
      if (op == "session")
        proc::write_frame(fd, ready_frame());
      else if (op == "task")
        alive = on_task(fd, record.at("id").as_u64());
      else if (op == "bye")
        alive = false;
    }
  }
  ::close(fd);
}

bool answer_well(int fd, std::uint64_t id) {
  return proc::write_frame(fd, result_frame(id, "good:" + std::to_string(id)));
}

/// Fake agents on threads, joined on destruction; declare it before the
/// Coordinator so the coordinator closes its sockets first.
struct Fleet {
  std::vector<std::thread> threads;

  void dial(std::uint16_t port, OnTask on_task) {
    threads.emplace_back([port, on_task] {
      std::string error;
      const int fd = support::tcp_connect("127.0.0.1", port, 5000, &error);
      if (fd >= 0) serve_fake(fd, on_task);
    });
  }

  ~Fleet() {
    for (std::thread& t : threads) t.join();
  }
};

/// The scenario Peak tunes SWIM in on sparc2.
core::SessionSpec spec() { return core::session_spec({}, "SWIM", "sparc2"); }

DistPolicy test_policy(std::size_t workers) {
  DistPolicy policy;
  policy.min_workers = workers;
  policy.update_worker_table = false;
  return policy;
}

struct HostileCase {
  const char* name;
  /// The frame a hostile worker sends for the task it holds.
  std::function<std::string(std::uint64_t held, std::size_t tasks)> frame;
};

class DistHostileFrames : public ::testing::TestWithParam<HostileCase> {};

TEST_P(DistHostileFrames, WorkerIsDroppedAndTheRoundEndsOnGoodOutcomes) {
  constexpr std::size_t kTasks = 6;
  Fleet fleet;
  Coordinator coordinator(spec(), test_policy(2));
  std::string error;
  ASSERT_TRUE(coordinator.listen(0, /*loopback_only=*/true, &error)) << error;
  const HostileCase& hostile = GetParam();
  fleet.dial(coordinator.port(), [&hostile](int fd, std::uint64_t id) {
    proc::write_frame(fd, hostile.frame(id, kTasks));
    return true;  // keep reading until the coordinator hangs up
  });
  fleet.dial(coordinator.port(), answer_well);
  ASSERT_TRUE(coordinator.wait_for_fleet(&error)) << error;

  // Each worker is dealt three tasks, so the hostile one holds one.
  const std::vector<proc::TaskOutcome> outcomes =
      coordinator.run_round(std::vector<core::MemberTask>(kTasks));
  ASSERT_EQ(outcomes.size(), kTasks);
  std::size_t protocol_failures = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_TRUE(outcomes[i].ok) << i;
    EXPECT_EQ(outcomes[i].payload, "good:" + std::to_string(i));
    EXPECT_EQ(outcomes[i].attempts, outcomes[i].failures.size() + 1);
    for (const proc::WorkerFailure& f : outcomes[i].failures) {
      EXPECT_EQ(f.signature, "protocol");
      EXPECT_EQ(f.task, i);
      ++protocol_failures;
    }
  }
  EXPECT_EQ(protocol_failures, 1u);  // the held task, requeued once
  EXPECT_EQ(coordinator.stats().workers_lost, 1u);
  EXPECT_EQ(coordinator.stats().tasks_failed, 0u);
  // The held task, plus whatever of its queue the good agent had not
  // stolen yet.
  EXPECT_GE(coordinator.stats().tasks_requeued, 1u);
  EXPECT_LE(coordinator.stats().tasks_requeued, 3u);
  EXPECT_EQ(coordinator.fleet_size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Frames, DistHostileFrames,
    ::testing::Values(
        HostileCase{"ResultIdOutOfRange",
                    [](std::uint64_t, std::size_t tasks) {
                      return result_frame(tasks, "hostile");
                    }},
        HostileCase{"ResultIdMaxU64",
                    [](std::uint64_t, std::size_t) {
                      return result_frame(
                          std::numeric_limits<std::uint64_t>::max(),
                          "hostile");
                    }},
        HostileCase{"MalformedJson",
                    [](std::uint64_t held, std::size_t) {
                      return "{\"op\":\"result\",\"id\":" +
                             std::to_string(held) + ",\"payload\":";
                    }},
        HostileCase{"ResultWithoutPayload",
                    [](std::uint64_t held, std::size_t) {
                      return "{\"op\":\"result\",\"id\":" +
                             std::to_string(held) + "}";
                    }},
        HostileCase{"ResultForATaskNotHeld",
                    [](std::uint64_t held, std::size_t tasks) {
                      return result_frame((held + 1) % tasks, "hostile");
                    }},
        HostileCase{"ErrorForATaskNotHeld",
                    [](std::uint64_t held, std::size_t tasks) {
                      return error_frame((held + 1) % tasks, "hostile");
                    }},
        HostileCase{"SecondReady",
                    [](std::uint64_t, std::size_t) { return ready_frame(); }}),
    [](const ::testing::TestParamInfo<HostileCase>& info) {
      return std::string(info.param.name);
    });

static_assert(std::is_base_of_v<support::CheckError, FleetLost>);

/// A `peak worker --listen` stand-in on `agent` that accepts one
/// coordinator and drops dead on its first task.
void serve_corpse(Fleet& fleet, support::TcpListener& agent) {
  fleet.threads.emplace_back([&agent] {
    pollfd pfd{agent.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return;
    const int fd = agent.accept_ready();
    if (fd >= 0) serve_fake(fd, [](int, std::uint64_t) { return false; });
  });
}

TEST(DistFleetLoss, DialedFleetThatDiesFailsAtOnce) {
  // Dialed workers cannot rejoin, so the round must fail well inside
  // connect_timeout.
  support::TcpListener agent;
  std::string error;
  ASSERT_TRUE(agent.listen(0, /*loopback_only=*/true, &error)) << error;
  Fleet fleet;
  serve_corpse(fleet, agent);
  const DistPolicy policy = test_policy(1);
  Coordinator coordinator(spec(), policy);
  ASSERT_TRUE(coordinator.dial(
      {"127.0.0.1:" + std::to_string(agent.port())}, &error))
      << error;
  ASSERT_TRUE(coordinator.wait_for_fleet(&error)) << error;

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      coordinator.run_round(std::vector<core::MemberTask>(2)),
      FleetLost);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            policy.connect_timeout / 10);
  EXPECT_EQ(coordinator.stats().workers_lost, 1u);
}

TEST(DistFleetLoss, ListeningFleetWaitsConnectTimeoutForAReplacement) {
  Fleet fleet;
  DistPolicy policy = test_policy(1);
  policy.connect_timeout = 300ms;
  Coordinator coordinator(spec(), policy);
  std::string error;
  ASSERT_TRUE(coordinator.listen(0, /*loopback_only=*/true, &error)) << error;
  fleet.dial(coordinator.port(), [](int, std::uint64_t) { return false; });
  ASSERT_TRUE(coordinator.wait_for_fleet(&error)) << error;

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      coordinator.run_round(std::vector<core::MemberTask>(2)),
      FleetLost);
  EXPECT_GE(std::chrono::steady_clock::now() - start, policy.connect_timeout);
  EXPECT_EQ(coordinator.stats().workers_lost, 1u);
}

#ifdef PEAK_CLI_PATH
/// `peak tune --workers` whose only worker dies mid-run prints the lost
/// fleet with the resume hint and exits 1 (it used to spin for
/// connect_timeout and then abort on an uncaught CheckError).
TEST(DistFleetLoss, PeakTuneReportsALostDialedFleetWithExitOne) {
  support::TcpListener agent;
  std::string error;
  ASSERT_TRUE(agent.listen(0, /*loopback_only=*/true, &error)) << error;
  Fleet fleet;
  serve_corpse(fleet, agent);
  const std::string journal = ::testing::TempDir() + "peak_fleet_lost.jsonl";
  const std::string err_path = ::testing::TempDir() + "peak_fleet_lost.err";
  std::remove(journal.c_str());
  const std::string cmd = std::string(PEAK_CLI_PATH) +
                          " tune --benchmark swim --workers 127.0.0.1:" +
                          std::to_string(agent.port()) + " --journal " +
                          journal + " > /dev/null 2> " + err_path;
  const auto start = std::chrono::steady_clock::now();
  const int status = std::system(cmd.c_str());
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  std::ifstream in(err_path);
  std::stringstream err;
  err << in.rdbuf();
  ASSERT_TRUE(WIFEXITED(status)) << err.str();
  EXPECT_EQ(WEXITSTATUS(status), 1) << err.str();
  EXPECT_NE(err.str().find("all workers lost"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("resume with: peak tune --benchmark swim "
                           "--journal " + journal + " --resume"),
            std::string::npos)
      << err.str();
  std::remove(journal.c_str());
}
#endif

}  // namespace
}  // namespace peak::dist
