#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Whole-journal truncation sweep. A kill leaves the journal cut at a
/// record boundary or inside a record. Resuming from any such cut —
/// leniently or under --journal-strict — must reach the uninterrupted
/// TuningOutcome bit for bit, must find no damaged line (a cut leaves at
/// most a torn trailing one), and must leave behind a file that resumes
/// again under strict.
class RobustJournal : public ::testing::Test {
protected:
  RobustJournal()
      : machine_(sim::sparc2()),
        effects_(search::gcc33_o3_space()),
        workload_(workloads::make_workload("SWIM")),
        train_(workload_->trace(workloads::DataSet::kTrain, 42)),
        profile_(profile_workload(*workload_, train_, machine_)) {}

  TuningOutcome tune(const DriverOptions& options, rating::Method method) {
    TuningDriver driver(*workload_, profile_, train_, machine_, effects_,
                        options);
    return driver.tune(method);
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

  static void write(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  /// Journal one run, then resume it from every record boundary and from
  /// every byte inside its first record and one mid-file record. The
  /// cuts are independent runs, so four threads share them out.
  void sweep(const std::string& name, rating::Method method,
             const fault::FaultInjector* injector) {
    DriverOptions options;
    options.fault.injector = injector;
    options.fault.journal_path = temp_path("peak_sweep_" + name + ".jsonl");
    const TuningOutcome original = tune(options, method);
    const std::string journal = slurp(options.fault.journal_path);
    std::vector<std::size_t> ends;  // just past each record's '\n'
    for (std::size_t i = 0; i < journal.size(); ++i)
      if (journal[i] == '\n') ends.push_back(i + 1);
    ASSERT_GT(ends.size(), 4u);

    std::vector<std::size_t> cuts = {0};
    cuts.insert(cuts.end(), ends.begin(), ends.end());
    for (std::size_t len = 1; len < ends[0]; ++len) cuts.push_back(len);
    const std::size_t mid = ends.size() / 2;
    for (std::size_t len = ends[mid - 1] + 1; len < ends[mid]; ++len)
      cuts.push_back(len);

    options.fault.resume = true;
    obs::Counter& corrupt = obs::counter("journal.corrupt_lines");
    const std::uint64_t corrupt_before = corrupt.value();
    std::atomic<std::size_t> next{0};
    const auto resume_cuts = [&](unsigned worker) {
      DriverOptions resume = options;
      resume.fault.journal_path = temp_path(
          "peak_sweep_" + name + "_cut" + std::to_string(worker) + ".jsonl");
      for (std::size_t i = next++; i < cuts.size(); i = next++) {
        for (const bool strict : {false, true}) {
          SCOPED_TRACE("cut at byte " + std::to_string(cuts[i]) + " of " +
                       std::to_string(journal.size()) +
                       (strict ? ", strict" : ", lenient"));
          write(resume.fault.journal_path, journal.substr(0, cuts[i]));
          resume.fault.journal_strict = strict;
          try {
            ASSERT_EQ(tune(resume, method), original);
          } catch (const std::exception& e) {
            FAIL() << e.what();  // a refusal, not a resume
          }
          // The resume cut the torn bytes and appended what it rated in
          // the uninterrupted order: it left the uninterrupted journal.
          ASSERT_EQ(slurp(resume.fault.journal_path), journal);
        }
      }
    };
    std::vector<std::thread> workers;
    for (unsigned w = 1; w < 4; ++w) workers.emplace_back(resume_cuts, w);
    resume_cuts(0);
    for (std::thread& t : workers) t.join();
    EXPECT_EQ(corrupt.value(), corrupt_before);

    // ...and that file resumes under strict, replaying every record.
    options.fault.journal_strict = true;
    obs::Counter& replayed = obs::counter("journal.replayed");
    const std::uint64_t replayed_before = replayed.value();
    EXPECT_EQ(tune(options, method), original);
    EXPECT_EQ(replayed.value() - replayed_before, ends.size());
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
  std::unique_ptr<workloads::Workload> workload_;
  workloads::Trace train_;
  ProfileData profile_;
};

TEST_F(RobustJournal, EveryCutOfAFaultFreeCbrJournalResumes) {
  sweep("cbr", rating::Method::kCBR, nullptr);
}

TEST_F(RobustJournal, EveryCutOfAnRbrJournalUnderFaultsResumes) {
  fault::FaultModel model;
  model.fault_prob = 0.05;
  model.seed = 0xfa;
  fault::FaultInjector injector(model);
  injector.exempt(search::o3_config(effects_.space()));
  sweep("rbr_faults", rating::Method::kRBR, &injector);
}

}  // namespace
}  // namespace peak::core
