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

#include "core/journal.hpp"
#include "core/profile.hpp"
#include "core/rating_cache.hpp"
#include "core/tuning_driver.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Durability tests for the two append-only JSONL stores: the tuning
/// journal (replay must survive a corrupt mid-file line in lenient mode
/// and refuse it in --journal-strict) and the rating cache (concurrent
/// writer processes must interleave whole lines, damaged lines cost only
/// themselves).
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
    lines[lines.size() / 2] = R"({"type":"eval","base":"torn)";
    write_lines(path, lines);
    return path;
  }

  static std::uint64_t counter(const std::string& name) {
    return obs::counter(name).value();
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
};

TEST_F(ProcDurabilityTest, LenientLoadReplaysPrefixAndCountsTheTail) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_torn_load.jsonl", &original);
  const std::size_t total_lines = read_lines(path).size();

  const std::uint64_t before = counter("journal.corrupt_lines");
  TuningJournal::LoadStats stats;
  const auto segments =
      TuningJournal::load(path, /*strict=*/false, &stats);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_FALSE(segments[0].evals.empty());
  EXPECT_TRUE(stats.truncated);
  // The damaged line and everything after it count as lost: the eval
  // chain is sequence-checked, so the tail is unreplayable even where it
  // parses.
  EXPECT_GE(stats.corrupt_lines, 1u);
  EXPECT_LE(stats.corrupt_lines, total_lines);
  EXPECT_GT(stats.good_bytes, 0u);
  EXPECT_EQ(counter("journal.corrupt_lines"),
            before + stats.corrupt_lines);
}

TEST_F(ProcDurabilityTest, StrictLoadThrowsOnMidFileCorruption) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_torn_strict.jsonl", &original);
  EXPECT_THROW(TuningJournal::load(path, /*strict=*/true),
               support::CheckError);
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
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << R"({"type":"eval","base":"dead)";
  }
  TuningJournal::LoadStats stats;
  const auto segments = TuningJournal::load(path, /*strict=*/true, &stats);
  EXPECT_EQ(segments.size(), 1u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.corrupt_lines, 0u);
}

TEST_F(ProcDurabilityTest, ResumeFromTornJournalIsBitIdentical) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_torn_resume.jsonl", &original);

  // Lenient resume replays the good prefix and re-measures the rest
  // live; batch-mode ratings are content-seeded, so the re-measured tail
  // is the same as the recorded one and the outcome is bit-identical.
  DriverOptions resume;
  resume.search_threads = 1;
  resume.fault.journal_path = path;
  resume.fault.resume = true;
  EXPECT_EQ(tune(s, resume, rating::Method::kCBR), original);

  // The resumed run truncated the corrupt tail and appended its live
  // evals: a second resume of the same file replays clean.
  const std::uint64_t before = counter("journal.corrupt_lines");
  DriverOptions again = resume;
  EXPECT_EQ(tune(s, again, rating::Method::kCBR), original);
  EXPECT_EQ(counter("journal.corrupt_lines"), before);
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

TEST_F(ProcDurabilityTest, ResumeRefusesAJournalOfAnotherRun) {
  // A segment replays only into the run that wrote it: same method, same
  // run fingerprint. The first IE probes have the same config keys in
  // every section, so the key check alone would let another run's
  // deltas through. (ART's train trace depends on its seed.)
  const Setup s = setup("ART");
  const std::string path = temp_path("peak_journal_other_run.jsonl");
  DriverOptions options;
  options.fault.journal_path = path;
  const TuningOutcome original = tune(s, options, rating::Method::kRBR);
  options.fault.resume = true;

  EXPECT_THROW(tune(setup("ART", 43), options, rating::Method::kRBR),
               JournalError);
  EXPECT_THROW(tune(s, options, rating::Method::kCBR), JournalError);

  // A start record without a fingerprint cannot vouch for its run.
  std::vector<std::string> lines = read_lines(path);
  const std::size_t fp = lines[0].find(",\"fp\":");
  ASSERT_NE(fp, std::string::npos) << lines[0];
  const std::vector<std::string> recorded = lines;
  lines[0] = lines[0].substr(0, fp) + "}";
  write_lines(path, lines);
  EXPECT_THROW(tune(s, options, rating::Method::kRBR), JournalError);

  // The run that wrote the journal still resumes from it.
  write_lines(path, recorded);
  EXPECT_EQ(tune(s, options, rating::Method::kRBR), original);
}

#ifdef PEAK_CLI_PATH
/// `peak tune --resume --journal-strict` refuses a damaged journal with
/// exit 1 and a message naming the journal and the line, and --resume
/// refuses a journal it cannot read the same way; both used to end in an
/// uncaught exception (abort, exit 134).
TEST_F(ProcDurabilityTest, CliRefusesDamagedOrMissingJournalWithExitOne) {
  Setup s = setup("SWIM");
  TuningOutcome original;
  const std::string path =
      corrupted_journal(s, "peak_journal_cli_strict.jsonl", &original);
  const std::string err_path = temp_path("peak_journal_cli_strict.err");
  auto resume = [&](const std::string& journal, std::string* err) {
    const std::string cmd =
        std::string(PEAK_CLI_PATH) +
        " tune --benchmark swim --machine sparc2 --search-threads 1"
        " --resume --journal-strict --journal " +
        journal + " > /dev/null 2> " + err_path;
    const int status = std::system(cmd.c_str());
    std::ifstream in(err_path);
    std::stringstream text;
    text << in.rdbuf();
    *err = text.str();
    return status;
  };

  std::string err;
  int status = resume(path, &err);
  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 1) << err;
  const std::string damaged_line =
      "line " + std::to_string(read_lines(path).size() / 2 + 1);
  EXPECT_NE(err.find("refusing to resume"), std::string::npos) << err;
  EXPECT_NE(err.find(path + " " + damaged_line + " is corrupt"),
            std::string::npos)
      << err;

  status = resume(temp_path("peak_journal_cli_missing.jsonl"), &err);
  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 1) << err;
  EXPECT_NE(err.find("cannot read tuning journal"), std::string::npos)
      << err;
}

/// `peak tune --resume` refuses a journal another run wrote — another
/// section, machine or method — with exit 1. A SWIM journal used to
/// replay silently onto EQUAKE, or to abort (exit 134) under RBR.
TEST_F(ProcDurabilityTest, CliRefusesAJournalOfAnotherRunWithExitOne) {
  const std::string path = temp_path("peak_journal_cli_other_run.jsonl");
  const std::string err_path = temp_path("peak_journal_cli_other_run.err");
  auto peak_tune = [&](const std::string& flags, std::string* err) {
    const std::string cmd = std::string(PEAK_CLI_PATH) +
                            " tune --search-threads 1 --journal " + path +
                            " " + flags + " > /dev/null 2> " + err_path;
    const int status = std::system(cmd.c_str());
    std::ifstream in(err_path);
    std::stringstream text;
    text << in.rdbuf();
    *err = text.str();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };

  std::string err;
  ASSERT_EQ(peak_tune("--benchmark swim", &err), 0) << err;
  for (const char* other : {"--benchmark equake --machine p4",
                            "--benchmark mgrid", "--benchmark swim --method RBR"}) {
    EXPECT_EQ(peak_tune(std::string(other) + " --resume", &err), 1)
        << other << ": " << err;
    EXPECT_NE(err.find("refusing to resume"), std::string::npos)
        << other << ": " << err;
  }
  EXPECT_EQ(peak_tune("--benchmark swim --resume", &err), 0) << err;
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
