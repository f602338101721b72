#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/jsonl.hpp"
#include "core/session.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker_agent.hpp"
#include "proc/protocol.hpp"
#include "support/check.hpp"
#include "support/tcp.hpp"

namespace peak::dist {
namespace {

/// The dist wire protocol under adversarial socket conditions: TCP hands
/// the reader arbitrary byte slices, so every frame boundary, partial
/// delivery, and corruption mode the transport can produce must be
/// classified correctly — and a coordinator must refuse a worker
/// speaking the wrong protocol version during the handshake, not
/// mid-round.
class DistProtocolTest : public ::testing::Test {
protected:
  static core::SessionSpec spec() {
    core::SessionSpec s;
    s.benchmark = "SWIM";
    s.machine = "sparc2";
    return s;
  }

  /// A representative task with bit-awkward memo doubles.
  static core::MemberTask task(std::size_t bits) {
    core::MemberTask t;
    t.method = rating::Method::kRBR;
    t.base_key = std::string(bits, '1');
    t.cfg_key = std::string(bits, '1');
    t.cfg_key[3] = '0';
    t.seed = 0x9e3779b97f4a7c15ULL;
    t.memo.emplace_back(t.base_key, 0.1);  // not exactly representable
    t.memo.emplace_back(t.cfg_key, 3.0e-17);
    return t;
  }
};

TEST_F(DistProtocolTest, FramesSurviveOneByteDelivery) {
  // Worst-case TCP segmentation: every byte arrives alone. All frames
  // must still come out intact and in order.
  const std::vector<std::string> payloads = {
      hello_frame("w1"), ready_frame(), heartbeat_frame(7),
      result_frame(3, "{\"r\":\"3ff0000000000000\"}"), bye_frame()};
  std::string stream;
  for (const std::string& p : payloads) stream += proc::encode_frame(p);

  proc::FrameReader reader;
  std::vector<std::string> out;
  for (char byte : stream) {
    reader.feed(&byte, 1);
    while (auto frame = reader.next()) out.push_back(*frame);
  }
  EXPECT_FALSE(reader.corrupted());
  EXPECT_EQ(reader.pending_bytes(), 0u);
  ASSERT_EQ(out.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(out[i], payloads[i]);
}

TEST_F(DistProtocolTest, FrameSplitAcrossReadsAtEveryOffset) {
  // One frame split into two read()s at every possible boundary,
  // including inside the hex length prefix.
  const std::string frame = proc::encode_frame(task_frame(42, 1, task(8)));
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    proc::FrameReader reader;
    reader.feed(frame.data(), cut);
    const bool early = reader.next().has_value();
    EXPECT_EQ(early, cut == frame.size()) << "cut " << cut;
    reader.feed(frame.data() + cut, frame.size() - cut);
    if (!early) {
      const auto payload = reader.next();
      ASSERT_TRUE(payload.has_value()) << "cut " << cut;
      EXPECT_EQ(*payload, task_frame(42, 1, task(8)));
    }
    EXPECT_FALSE(reader.corrupted());
    EXPECT_EQ(reader.pending_bytes(), 0u);
  }
}

TEST_F(DistProtocolTest, MidFrameDisconnectLeavesPendingBytes) {
  // A worker killed mid-write leaves a torn frame. The reader must say
  // "incomplete" (pending bytes, no frame, no corruption) — that is how
  // the coordinator tells a death from a protocol violation.
  const std::string frame = proc::encode_frame(result_frame(0, "{}"));
  proc::FrameReader reader;
  reader.feed(frame.data(), frame.size() / 2);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.corrupted());
  EXPECT_GT(reader.pending_bytes(), 0u);
}

TEST_F(DistProtocolTest, OversizedLengthPrefixIsCorruption) {
  // "ffffffff" decodes to 4 GiB — far past kMaxFramePayload. That is
  // garbage (e.g. a peer writing raw text), not a frame to wait for.
  proc::FrameReader reader;
  const std::string junk = "ffffffff";
  reader.feed(junk.data(), junk.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupted());

  proc::FrameReader nonhex;
  const std::string text = "hello, not a frame";
  nonhex.feed(text.data(), text.size());
  EXPECT_FALSE(nonhex.next().has_value());
  EXPECT_TRUE(nonhex.corrupted());
}

TEST_F(DistProtocolTest, SessionSpecRoundTripsBitExact) {
  core::SessionSpec s = spec();
  s.dataset = "ref";
  s.trace_seed = 17;
  s.effect_seed = 0x9eac ^ 3;
  s.profile.detailed_invocations = 24;
  s.profile.context_scan_limit = 1500;
  s.profile.components.max_components = 5;
  s.profile.components.affine_tolerance = 1e-11;
  s.profile.components.small_block_fraction = 0.1;  // not exactly representable
  s.profile.mbr_profile_var_threshold = 0.0049;
  s.seed = 5;
  s.window.min_samples = 12;
  s.window.max_samples = 512;
  s.window.cv_threshold = 0.0071;
  s.window.outliers.rule = stats::OutlierRule::kSigma;
  s.window.outliers.k = 3.25;
  s.window.outliers.max_drop_fraction = 0.125;
  s.window.outliers.max_iterations = 4;
  s.mbr.min_samples_per_component = 3;
  s.mbr.max_samples = 96;
  s.mbr.var_threshold = 1e-9;
  s.mbr.cv_threshold = 0.011;
  s.mbr.dominant_share = 0.83;
  s.improved_rbr = false;
  s.rbr_batch_pairs = 4;

  const std::string json = serialize_session_spec(s);
  const core::SessionSpec back =
      parse_session_spec(core::jsonl::JsonParser(json).parse());
  EXPECT_EQ(back, s);
}

TEST_F(DistProtocolTest, TaskFrameRoundTripsBitExact) {
  const core::MemberTask t = task(38);
  const core::jsonl::JsonValue record =
      parse_frame(task_frame(9, 2, t));
  EXPECT_EQ(frame_op(record), "task");
  const TaskFrame back = parse_task_frame(record);
  EXPECT_EQ(back.id, 9u);
  EXPECT_EQ(back.attempt, 2u);
  EXPECT_EQ(back.task, t);
}

TEST_F(DistProtocolTest, TaskFrameCarriesFaultStateBitExact) {
  // A guarded member reads the quarantine entries of its base and its
  // candidate and the candidate's validation verdict; the task frame
  // carries them, so a worker rates from the same state a slot thread
  // would.
  core::MemberTask t = task(38);
  t.faults.push_back({t.base_key, fault::FaultKind::kTimerGlitch, 1, false});
  t.faults.push_back({t.cfg_key, fault::FaultKind::kHardCrash, 3, true});
  t.validated = true;
  std::string frame = task_frame(4, 0, t);
  EXPECT_EQ(parse_task_frame(parse_frame(frame)).task, t);

  // An unknown fault kind makes the frame malformed.
  frame.replace(frame.find("hard-crash"), 10, "meltdown!!");
  EXPECT_THROW((void)parse_task_frame(parse_frame(frame)),
               support::CheckError);
}

TEST_F(DistProtocolTest, VersionMismatchHandshakeIsRefused) {
  // A worker announcing a future protocol version must be refused with a
  // reason during the handshake; it never joins the fleet.
  DistPolicy short_wait;
  short_wait.connect_timeout = std::chrono::milliseconds(750);
  short_wait.update_worker_table = false;
  Coordinator coordinator(spec(), short_wait);
  std::string error;
  ASSERT_TRUE(coordinator.listen(0, /*loopback_only=*/true, &error))
      << error;

  std::string refusal;
  std::thread worker([&] {
    const int fd =
        support::tcp_connect("127.0.0.1", coordinator.port(), 2000, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(proc::write_frame(
        fd, "{\"op\":\"hello\",\"version\":99,\"name\":\"future\"}"));
    proc::FrameReader reader;
    char buf[4096];
    for (;;) {
      const ssize_t got = ::read(fd, buf, sizeof buf);
      if (got <= 0) break;  // coordinator hangs up after the refusal
      reader.feed(buf, static_cast<std::size_t>(got));
      if (auto frame = reader.next()) {
        refusal = *frame;
        break;
      }
    }
    ::close(fd);
  });

  // The fleet can never form from a refused worker; the wait must time
  // out rather than accept it.
  EXPECT_FALSE(coordinator.wait_for_fleet(&error));
  worker.join();

  const core::jsonl::JsonValue v =
      core::jsonl::JsonParser(refusal).parse();
  EXPECT_EQ(frame_op(v), "refuse");
  EXPECT_NE(v.at("reason").as_string().find("version"), std::string::npos);
  EXPECT_EQ(coordinator.fleet_size(), 0u);
  EXPECT_EQ(coordinator.stats().workers_connected, 0u);
}

TEST_F(DistProtocolTest, VersionOneSessionFrameIsRefused) {
  // A version-1 spec carries no effect seed and no profile options, so a
  // worker rebuilding it would rate another scenario: the agent refuses
  // the session frame and never reports ready.
  support::TcpListener listener;
  std::string error;
  ASSERT_TRUE(listener.listen(0, /*loopback_only=*/true, &error)) << error;
  int status = -1;
  std::thread agent([&] {
    WorkerOptions options;
    options.connect_host = "127.0.0.1";
    options.connect_port = listener.port();
    status = WorkerAgent(options).run();
  });
  pollfd pfd{listener.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  const int fd = listener.accept_ready();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(proc::write_frame(fd, "{\"op\":\"session\",\"version\":1,"
                                    "\"spec\":" +
                                        serialize_session_spec(spec()) +
                                        "}"));
  std::vector<std::string> ops;
  proc::FrameReader reader;
  char buf[4096];
  ssize_t got;
  while ((got = ::read(fd, buf, sizeof buf)) > 0) {  // until it hangs up
    reader.feed(buf, static_cast<std::size_t>(got));
    while (auto frame = reader.next()) ops.push_back(frame_op(parse_frame(*frame)));
  }
  ::close(fd);
  agent.join();
  EXPECT_EQ(status, 1);
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops.front(), "hello");
  EXPECT_EQ(std::count(ops.begin(), ops.end(), "ready"), 0);
}

}  // namespace
}  // namespace peak::dist
