#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/rating_cache.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Durability tests for the append-only JSONL store behind the tuning
/// journal and the rating cache: a damaged line costs only itself (a
/// lenient resume skips it, --journal-strict refuses it), a torn
/// trailing line never swallows the next record, another run's records
/// never answer a question, and concurrent writer processes interleave
/// whole lines.
class ProcDurabilityTest : public ::testing::Test {
protected:
  ProcDurabilityTest()
      : machine_(sim::sparc2()), effects_(search::gcc33_o3_space()) {}

  struct Setup {
    std::unique_ptr<workloads::Workload> workload;
    workloads::Trace train;
    ProfileData profile;
  };

  Setup setup(const std::string& name, std::uint64_t trace_seed = 42) {
    Setup s;
    s.workload = workloads::make_workload(name);
    s.train = s.workload->trace(workloads::DataSet::kTrain, trace_seed);
    s.profile = profile_workload(*s.workload, s.train, machine_);
    return s;
  }

  TuningOutcome tune(const Setup& s, const DriverOptions& options,
                     rating::Method method) {
    TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                        effects_, options);
    return driver.tune(method);
  }

  static std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
  }

  static std::vector<std::string> read_lines(const std::string& path) {
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  static void write_lines(const std::string& path,
                          const std::vector<std::string>& lines) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }

  /// A journal whose middle line was damaged in place — the record lost
  /// its tail (torn write / bad sector), leaving a complete but
  /// unparseable line followed by intact records.
  std::string corrupted_journal(const Setup& s, const std::string& name,
                                TuningOutcome* outcome) {
    const std::string path = temp_path(name);
    DriverOptions options;
    options.search_threads = 1;
    options.fault.journal_path = path;
    *outcome = tune(s, options, rating::Method::kCBR);
    std::vector<std::string> lines = read_lines(path);
    EXPECT_GT(lines.size(), 4u);
    lines[lines.size() / 2] = R"({"type":"rating","key":"torn)";
    write_lines(path, lines);
    return path;
  }

  static std::uint64_t counter(const std::string& name) {
    return obs::counter(name).value();
  }

  /// The journal as the driver opens it on resume.
  static RatingCache journal(const std::string& path, bool strict) {
    return RatingCache(path,
                       strict ? RatingCache::Load::kStrict
                              : RatingCache::Load::kRequired,
                       kJournalCounters);
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
};

TEST_F(ProcDurabilityTest, LenientLoadSkipsOnlyTheDamagedLine) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_torn_load.jsonl", &original);
  const std::size_t total_lines = read_lines(path).size();

  // Records are keyed, not sequenced: the damaged line costs only
  // itself, and every record after it still loads.
  const std::uint64_t before = counter("journal.corrupt_lines");
  const RatingCache loaded = journal(path, /*strict=*/false);
  EXPECT_EQ(loaded.size(), total_lines - 1);
  EXPECT_EQ(counter("journal.corrupt_lines"), before + 1);
}

TEST_F(ProcDurabilityTest, StrictLoadThrowsOnMidFileCorruption) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_torn_strict.jsonl", &original);
  EXPECT_THROW((void)journal(path, /*strict=*/true), JournalError);
}

TEST_F(ProcDurabilityTest, PartialTrailingLineIsFineEvenInStrictMode) {
  // A trailing partial line is the normal shape of a crash mid-append,
  // not corruption: strict mode tolerates it too.
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_journal_tail_strict.jsonl");
  DriverOptions options;
  options.search_threads = 1;
  options.fault.journal_path = path;
  (void)tune(s, options, rating::Method::kCBR);
  const std::size_t records = read_lines(path).size();
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << R"({"type":"rating","key":"dead)";
  }
  const std::uint64_t before = counter("journal.corrupt_lines");
  const RatingCache loaded = journal(path, /*strict=*/true);
  EXPECT_EQ(loaded.size(), records);
  EXPECT_EQ(counter("journal.corrupt_lines"), before);
}

TEST_F(ProcDurabilityTest, ResumeFromTornJournalIsBitIdentical) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_torn_resume.jsonl", &original);

  // Lenient resume replays every intact record and re-measures the one
  // the damaged line held; batch-mode ratings are content-seeded, so the
  // re-measured rating is the recorded one and the outcome is
  // bit-identical.
  DriverOptions resume;
  resume.search_threads = 1;
  resume.fault.journal_path = path;
  resume.fault.resume = true;
  EXPECT_EQ(tune(s, resume, rating::Method::kCBR), original);

  // The resumed run appended the re-measured record, so a second resume
  // replays every rating and measures none.
  const std::size_t records = read_lines(path).size() - 1;  // one damaged
  const std::uint64_t replayed = counter("journal.replayed");
  const std::uint64_t missed = counter("journal.miss");
  EXPECT_EQ(tune(s, resume, rating::Method::kCBR), original);
  EXPECT_EQ(counter("journal.replayed") - replayed, records);
  EXPECT_EQ(counter("journal.miss"), missed);
}

TEST_F(ProcDurabilityTest, StrictResumeRefusesACorruptJournal) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_torn_refuse.jsonl", &original);
  DriverOptions resume;
  resume.search_threads = 1;
  resume.fault.journal_path = path;
  resume.fault.resume = true;
  resume.fault.journal_strict = true;
  EXPECT_THROW(tune(s, resume, rating::Method::kCBR),
               support::CheckError);
}

TEST_F(ProcDurabilityTest, ResumeReplaysNothingOfAnotherRun) {
  // A record answers only the question it records: its key starts from
  // the run fingerprint. Another method, trace or fault seed asks other
  // questions, so resuming from another run's journal replays nothing
  // and tunes exactly as a fresh run would. (The first IE probes have
  // the same config keys in every section, so config keys alone would
  // let another run's deltas through; ART's train trace depends on its
  // seed.)
  const Setup s = setup("ART");
  const Setup other_trace = setup("ART", 43);
  const std::string path = temp_path("peak_journal_other_run.jsonl");
  DriverOptions options;
  options.fault.journal_path = path;
  const TuningOutcome original = tune(s, options, rating::Method::kRBR);
  const std::size_t records = read_lines(path).size();
  options.fault.resume = true;

  const std::uint64_t replayed = counter("journal.replayed");
  EXPECT_EQ(tune(other_trace, options, rating::Method::kRBR),
            tune(other_trace, {}, rating::Method::kRBR));
  EXPECT_EQ(tune(s, options, rating::Method::kCBR),
            tune(s, {}, rating::Method::kCBR));
  EXPECT_EQ(counter("journal.replayed"), replayed);

  // The injector is part of the run too: a journal written under one
  // fault seed replays nothing into a run under another.
  const auto injector = [&](std::uint64_t seed) {
    fault::FaultModel model;
    model.fault_prob = 0.05;
    model.seed = seed;
    fault::FaultInjector out(model);
    out.exempt(search::o3_config(effects_.space()));
    return out;
  };
  const fault::FaultInjector seed1 = injector(1);
  const fault::FaultInjector seed2 = injector(2);
  DriverOptions faulty = options;
  faulty.fault.resume = false;
  faulty.fault.injector = &seed1;
  (void)tune(s, faulty, rating::Method::kRBR);
  DriverOptions fresh;
  fresh.fault.injector = &seed2;
  faulty.fault.resume = true;
  faulty.fault.injector = &seed2;
  EXPECT_EQ(tune(s, faulty, rating::Method::kRBR),
            tune(s, fresh, rating::Method::kRBR));
  EXPECT_EQ(counter("journal.replayed"), replayed);

  // The run that wrote the journal still replays every record of it.
  EXPECT_EQ(tune(s, options, rating::Method::kRBR), original);
  EXPECT_EQ(counter("journal.replayed") - replayed, records);
}

#ifdef PEAK_CLI_PATH
/// Runs `peak tune` with `flags`; returns the exit status (-1 when it did
/// not exit) and leaves stdout in *out and stderr in *err.
int peak_tune(const std::string& flags, std::string* out, std::string* err) {
  // Per test: ctest runs the tests of this file concurrently.
  const std::string base =
      ::testing::TempDir() + "peak_tune_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string out_path = base + ".out";
  const std::string err_path = base + ".err";
  const std::string cmd = std::string(PEAK_CLI_PATH) + " tune " + flags +
                          " > " + out_path + " 2> " + err_path;
  const int status = std::system(cmd.c_str());
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  };
  *out = slurp(out_path);
  *err = slurp(err_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The report of a `peak tune` run without its journal line, which says
/// whether and how much it resumed.
std::string report_of(const std::string& out) {
  std::stringstream in(out);
  std::string report;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("  journal: ", 0) != 0) report += line + "\n";
  return report;
}

/// The count `peak tune --resume` prints on its journal line.
long replayed_of(const std::string& out) {
  const std::size_t at = out.find("(resumed, ");
  if (at == std::string::npos) return -1;
  return std::strtol(out.c_str() + at + 10, nullptr, 10);
}

/// `peak tune --resume --journal-strict` refuses a damaged journal with
/// exit 1 and a message naming the journal and the line, and --resume
/// refuses a journal it cannot read the same way; both used to end in an
/// uncaught exception (abort, exit 134).
TEST_F(ProcDurabilityTest, CliRefusesDamagedOrMissingJournalWithExitOne) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_cli_strict.jsonl", &original);
  const std::string flags =
      "--benchmark swim --machine sparc2 --search-threads 1"
      " --resume --journal-strict --journal ";

  std::string out;
  std::string err;
  EXPECT_EQ(peak_tune(flags + path, &out, &err), 1) << err;
  const std::string damaged_line =
      "line " + std::to_string(read_lines(path).size() / 2 + 1);
  EXPECT_NE(err.find("refusing to resume"), std::string::npos) << err;
  EXPECT_NE(err.find(path + " " + damaged_line + " is corrupt"),
            std::string::npos)
      << err;

  EXPECT_EQ(peak_tune(flags + temp_path("peak_journal_cli_missing.jsonl"),
                      &out, &err),
            1)
      << err;
  EXPECT_NE(err.find("cannot read tuning journal"), std::string::npos)
      << err;
}

/// `peak tune --resume` over a journal of other runs — another section,
/// machine, method or fault seed — replays nothing and prints a fresh
/// run's report, and the run that wrote records there still replays all
/// of them. (Until the journal was keyed by content, these resumes exited
/// 1, and one under another fault seed replayed the first seed's
/// ratings.)
TEST_F(ProcDurabilityTest, CliResumesAnotherRunsJournalAsAFreshRun) {
  const std::string path = temp_path("peak_journal_cli_other_run.jsonl");
  const std::string journal = " --search-threads 1 --journal " + path;
  std::string out;
  std::string err;
  ASSERT_EQ(peak_tune("--benchmark swim" + journal, &out, &err), 0) << err;
  const std::size_t records = read_lines(path).size();
  ASSERT_EQ(peak_tune("--benchmark swim --fault-prob 0.05 --fault-seed 1" +
                          journal,
                      &out, &err),
            0)
      << err;
  for (const std::string other :
       {"--benchmark equake --machine p4", "--benchmark mgrid",
        "--benchmark swim --method RBR",
        "--benchmark swim --fault-prob 0.05 --fault-seed 2"}) {
    std::string fresh;
    ASSERT_EQ(peak_tune(other + " --search-threads 1", &fresh, &err), 0)
        << other << ": " << err;
    EXPECT_EQ(peak_tune(other + journal + " --resume", &out, &err), 0)
        << other << ": " << err;
    EXPECT_EQ(report_of(out), report_of(fresh)) << other;
    EXPECT_EQ(replayed_of(out), 0) << other << ": " << out;
  }
  EXPECT_EQ(peak_tune("--benchmark swim --resume" + journal, &out, &err), 0)
      << err;
  EXPECT_EQ(replayed_of(out), static_cast<long>(records)) << out;
}

/// Kill, resume, kill again, then resume under --journal-strict. The
/// first resume must start its records on a line of their own, not glue
/// the first onto the torn bytes the kill left: that made the line
/// corrupt, so strict refused it and lenient lost every record after it.
TEST_F(ProcDurabilityTest, CliStrictResumeAfterTwoKillsReplaysEveryRecord) {
  const std::string path = temp_path("peak_journal_cli_two_kills.jsonl");
  const std::string flags = "--benchmark swim --machine sparc2"
                            " --search-threads 1 --journal " + path;
  std::string uninterrupted;
  std::string out;
  std::string err;
  ASSERT_EQ(peak_tune(flags, &uninterrupted, &err), 0) << err;
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GT(lines.size(), 8u);
  // A kill leaves the records it finished and half the one it was
  // writing.
  const auto kill_after = [&](std::size_t records) {
    std::ofstream cut(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < records; ++i) cut << lines[i] << '\n';
    cut << lines[records].substr(0, lines[records].size() / 2);
  };
  kill_after(lines.size() / 2);
  ASSERT_EQ(peak_tune(flags + " --resume", &out, &err), 0) << err;
  EXPECT_EQ(report_of(out), report_of(uninterrupted));
  EXPECT_EQ(read_lines(path), lines);
  kill_after(lines.size() * 3 / 4);
  ASSERT_EQ(peak_tune(flags + " --resume --journal-strict", &out, &err), 0)
      << err;
  EXPECT_EQ(report_of(out), report_of(uninterrupted));
  EXPECT_EQ(replayed_of(out), static_cast<long>(lines.size() * 3 / 4))
      << out;
}
#endif

TEST_F(ProcDurabilityTest, CacheWriterProcessesInterleaveWholeLines) {
  const std::string path = temp_path("peak_cache_two_writers.jsonl");
  constexpr int kWriters = 2;
  constexpr int kEntries = 200;

  // Two child processes append concurrently to the same cache file.
  // flock + O_APPEND must keep every record a whole line, so the merged
  // file loads every entry from both writers.
  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      RatingCache cache(path);
      for (int i = 0; i < kEntries; ++i) {
        RatingDelta entry;
        entry.r = 1.0 + w;
        entry.invocations = static_cast<std::uint64_t>(i);
        // Long-ish payload so a non-atomic append would tear visibly.
        entry.memo.emplace_back(std::string(120, 'a' + w),
                                      static_cast<double>(i));
        cache.store("w" + std::to_string(w) + "-" + std::to_string(i),
                    entry);
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  const std::uint64_t corrupt_before = counter("search.cache.corrupt_lines");
  RatingCache merged(path);
  EXPECT_EQ(merged.size(),
            static_cast<std::size_t>(kWriters * kEntries));
  EXPECT_EQ(counter("search.cache.corrupt_lines"), corrupt_before);
  const auto entry = merged.lookup("w1-7");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->r, 2.0);
}

TEST_F(ProcDurabilityTest, CacheSkipsAndCountsDamagedLines) {
  const std::string path = temp_path("peak_cache_damaged.jsonl");
  {
    RatingCache cache(path);
    for (int i = 0; i < 5; ++i) {
      RatingDelta entry;
      entry.r = static_cast<double>(i);
      cache.store("k" + std::to_string(i), entry);
    }
  }
  // Damage the middle: one garbage line and one truncated record.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);
  lines.insert(lines.begin() + 2, "!!! not json at all");
  lines.insert(lines.begin() + 4, lines[4].substr(0, 10));
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    for (const std::string& line : lines) out << line << '\n';
  }

  // Cache entries are position-independent: a hole costs only itself.
  const std::uint64_t before = counter("search.cache.corrupt_lines");
  RatingCache damaged(path);
  EXPECT_EQ(damaged.size(), 5u);
  EXPECT_EQ(counter("search.cache.corrupt_lines"), before + 2);
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(damaged.lookup("k" + std::to_string(i)).has_value()) << i;
}

}  // namespace
}  // namespace peak::core
