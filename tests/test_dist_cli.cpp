#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "dist/worker_agent.hpp"
#include "support/tcp.hpp"

namespace peak::dist {
namespace {

#ifdef PEAK_CLI_PATH
/// `peak tune` tunes one scenario whatever its flags: a journal, the
/// guard switch, forked workers, slot threads or a TCP fleet change how
/// the ratings run, never what they measure. The four lines that report
/// the tune (method, improvement, flags removed, cost) must not move.
struct CliCase {
  const char* benchmark;
  const char* machine;
};

/// Without a printer gtest lists the case as the bytes of its two
/// pointers, so every build (and every ASLR load) names the tests anew.
void PrintTo(const CliCase& c, std::ostream* os) {
  *os << c.benchmark << " on " << c.machine;
}

class PeakTuneIdentity : public ::testing::TestWithParam<CliCase> {
protected:
  /// Per-case scratch file, so the cases may run concurrently.
  static std::string temp_path(const std::string& suffix) {
    return ::testing::TempDir() + "peak_tune_identity_" +
           GetParam().benchmark + suffix;
  }

  /// The report lines of `peak tune ARGS`; the fleet's own status lines
  /// ("  distribute: ...") are not part of the report.
  static std::vector<std::string> report(const std::string& args) {
    const std::string out = temp_path(".out");
    const std::string cmd = std::string(PEAK_CLI_PATH) + " tune " + args +
                            " > " + out + " 2> /dev/null";
    const int status = std::system(cmd.c_str());
    std::vector<std::string> lines;
    std::ifstream in(out);
    std::string line;
    while (std::getline(in, line) && lines.size() < 4)
      if (line.rfind("  distribute:", 0) != 0) lines.push_back(line);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << args << "\n" << (lines.empty() ? "" : lines[0]);
    return lines;
  }
};

TEST_P(PeakTuneIdentity, FlagsDoNotChangeTheReport) {
  const CliCase& c = GetParam();
  const std::string base = std::string("--benchmark ") + c.benchmark +
                           " --machine " + c.machine;
  const std::vector<std::string> plain = report(base);
  ASSERT_EQ(plain.size(), 4u);
  ASSERT_NE(plain[1].find("improvement over -O3 (ref)"), std::string::npos);

  const std::string journal = temp_path(".jsonl");
  std::remove(journal.c_str());
  for (const std::string& flags :
       {"--journal " + journal, std::string("--no-guard"),
        std::string("--isolate-workers 2"),
        std::string("--search-threads 1")})
    EXPECT_EQ(report(base + " " + flags), plain) << flags;
  std::remove(journal.c_str());

  // --workers dials an in-process agent, which serves one session.
  support::TcpListener listener;
  std::string error;
  ASSERT_TRUE(listener.listen(0, /*loopback_only=*/true, &error)) << error;
  int served = -1;
  std::thread agent([&] {
    pollfd pfd{listener.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 30'000) != 1) return;
    const int fd = listener.accept_ready();
    if (fd >= 0) served = WorkerAgent(WorkerOptions{}).serve(fd);
  });
  EXPECT_EQ(report(base + " --workers 127.0.0.1:" +
                   std::to_string(listener.port())),
            plain);
  agent.join();
  EXPECT_EQ(served, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sections, PeakTuneIdentity,
    ::testing::Values(CliCase{"EQUAKE", "p4"}, CliCase{"SWIM", "sparc2"},
                      CliCase{"MGRID", "p4"}),
    [](const ::testing::TestParamInfo<CliCase>& info) {
      return std::string(info.param.benchmark) + "_" + info.param.machine;
    });

/// The percentage at the end of `line` ("... 10.37%" or "... 10.37% on
/// ref"), or "" when there is none.
std::string percentage(const std::string& line) {
  const std::size_t pct = line.rfind('%');
  if (pct == std::string::npos) return "";
  const std::size_t start = line.rfind(' ', pct);
  return line.substr(start + 1, pct - start);
}

/// `peak apply` measures a stored config in the scenario `peak tune`
/// measured it in, so it reports the improvement `tune --save` stored.
TEST(PeakApply, ReportsWhatTuneSaved) {
  const std::string store = ::testing::TempDir() + "peak_apply_store.txt";
  const std::string out = ::testing::TempDir() + "peak_apply.out";
  auto lines_of = [&](const std::string& args) {
    const std::string cmd =
        std::string(PEAK_CLI_PATH) + " " + args + " > " + out;
    EXPECT_EQ(std::system(cmd.c_str()), 0) << args;
    std::vector<std::string> lines;
    std::ifstream in(out);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  std::remove(store.c_str());
  for (const char* section : {"--benchmark EQUAKE --machine p4",
                              "--benchmark MGRID --machine p4"}) {
    const std::vector<std::string> tuned =
        lines_of(std::string("tune ") + section + " --save " + store);
    const std::vector<std::string> applied =
        lines_of(std::string("apply ") + section + " --load " + store);
    ASSERT_GE(tuned.size(), 2u) << section;
    ASSERT_EQ(applied.size(), 1u) << section;
    EXPECT_NE(percentage(tuned[1]), "") << tuned[1];
    EXPECT_EQ(percentage(applied[0]), percentage(tuned[1]))
        << section << "\n" << tuned[1] << "\n" << applied[0];
  }
  std::remove(store.c_str());
}
#endif

}  // namespace
}  // namespace peak::dist
