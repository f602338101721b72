#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Driver-level fault-tolerance tests: the acceptance criteria of the
/// robustness milestone. A 5% per-config fault rate must not crash or
/// hang tuning, miscompiled configs must never win, and a run killed at
/// any journal line must resume to a bit-identical TuningOutcome.
class FaultTuningTest : public ::testing::Test {
protected:
  FaultTuningTest()
      : machine_(sim::sparc2()), effects_(search::gcc33_o3_space()) {}

  struct Setup {
    std::unique_ptr<workloads::Workload> workload;
    workloads::Trace train;
    ProfileData profile;
  };

  Setup setup(const std::string& name) {
    Setup s;
    s.workload = workloads::make_workload(name);
    s.train = s.workload->trace(workloads::DataSet::kTrain, 42);
    s.profile = profile_workload(*s.workload, s.train, machine_);
    return s;
  }

  /// 5%-of-configs-faulty injector with the -O3 start config exempted
  /// (it is shipping production code, known to work).
  fault::FaultInjector sweep_injector(std::uint64_t seed) const {
    fault::FaultModel model;
    model.fault_prob = 0.05;
    model.seed = seed;
    fault::FaultInjector injector(model);
    injector.exempt(search::o3_config(effects_.space()));
    return injector;
  }

  /// Every non-exempt config glitches deterministically: all of its
  /// timings read as infinity.
  fault::FaultInjector glitch_flood() const {
    fault::FaultModel model;
    model.fault_prob = 1.0;
    model.crash_weight = model.hang_weight = 0.0;
    model.miscompile_weight = model.checkpoint_weight = 0.0;
    model.glitch_weight = 1.0;
    model.deterministic_fraction = 1.0;
    fault::FaultInjector injector(model);
    injector.exempt(search::o3_config(effects_.space()));
    return injector;
  }

  static std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
};

TEST_F(FaultTuningTest, JournalingAloneDoesNotPerturbTuning) {
  Setup s = setup("SWIM");

  TuningDriver plain(*s.workload, s.profile, s.train, machine_, effects_,
                     {});
  const TuningOutcome baseline = plain.tune(rating::Method::kCBR);

  DriverOptions options;
  options.fault.journal_path =
      temp_path("peak_journal_noperturb.jsonl");
  TuningDriver journaled(*s.workload, s.profile, s.train, machine_,
                         effects_, options);
  EXPECT_EQ(journaled.tune(rating::Method::kCBR), baseline);
}

TEST_F(FaultTuningTest, ResumeFromCompleteJournalIsBitIdentical) {
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_journal_full.jsonl");

  DriverOptions options;
  options.fault.journal_path = path;
  TuningDriver first(*s.workload, s.profile, s.train, machine_, effects_,
                     options);
  const TuningOutcome original = first.tune(rating::Method::kCBR);

  options.fault.resume = true;
  TuningDriver resumed(*s.workload, s.profile, s.train, machine_,
                       effects_, options);
  EXPECT_EQ(resumed.tune(rating::Method::kCBR), original);
}

TEST_F(FaultTuningTest, ResumeFromTruncatedJournalContinuesLive) {
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_journal_trunc.jsonl");

  DriverOptions options;
  options.fault.journal_path = path;
  TuningDriver first(*s.workload, s.profile, s.train, machine_, effects_,
                     options);
  const TuningOutcome original = first.tune(rating::Method::kCBR);

  // Simulate a kill partway through: keep about half the records, plus
  // the partial line the dying process was writing (which the load must
  // skip).
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 4u);
  const std::string cut = temp_path("peak_journal_cut.jsonl");
  {
    std::ofstream out(cut);
    for (std::size_t i = 0; i < 1 + (lines.size() - 1) / 2; ++i)
      out << lines[i] << '\n';
    out << R"({"type":"rating","key":"dead)";  // no trailing newline
  }

  DriverOptions resume_options;
  resume_options.fault.journal_path = cut;
  resume_options.fault.resume = true;
  TuningDriver resumed(*s.workload, s.profile, s.train, machine_,
                       effects_, resume_options);
  EXPECT_EQ(resumed.tune(rating::Method::kCBR), original);
}

TEST_F(FaultTuningTest, ResumeUnderFaultInjectionIsBitIdentical) {
  Setup s = setup("SWIM");
  const fault::FaultInjector injector = sweep_injector(0xfau);
  const std::string path = temp_path("peak_journal_fault.jsonl");

  DriverOptions options;
  options.fault.injector = &injector;
  options.fault.journal_path = path;
  TuningDriver first(*s.workload, s.profile, s.train, machine_, effects_,
                     options);
  const TuningOutcome original = first.tune(rating::Method::kCBR);

  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 4u);
  const std::string cut = temp_path("peak_journal_fault_cut.jsonl");
  {
    std::ofstream out(cut);
    for (std::size_t i = 0; i < 1 + (lines.size() - 1) / 3; ++i)
      out << lines[i] << '\n';
  }

  DriverOptions resume_options = options;
  resume_options.fault.journal_path = cut;
  resume_options.fault.resume = true;
  TuningDriver resumed(*s.workload, s.profile, s.train, machine_,
                       effects_, resume_options);
  const TuningOutcome replayed = resumed.tune(rating::Method::kCBR);
  EXPECT_EQ(replayed, original);
  // Quarantine decisions recorded before the kill must survive it.
  EXPECT_EQ(resumed.quarantine().entries().size(),
            first.quarantine().entries().size());
}

TEST_F(FaultTuningTest, FivePercentFaultSweepCompletesOnAllWorkloads) {
  for (auto& workload : workloads::all_workloads()) {
    SCOPED_TRACE(workload->full_name());
    Setup s;
    s.workload = std::move(workload);
    s.train = s.workload->trace(workloads::DataSet::kTrain, 42);
    s.profile = profile_workload(*s.workload, s.train, machine_);
    const fault::FaultInjector injector = sweep_injector(0x5eedu);

    DriverOptions options;
    options.fault.injector = &injector;
    TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                        effects_, options);
    // Completing at all is the headline claim: every injected hang hits
    // a deadline and every crash is retried or quarantined, so tuning
    // never dies and never spins.
    const TuningOutcome outcome = driver.tune_auto();

    // The winner is never a quarantined or miscompiled configuration.
    EXPECT_FALSE(driver.quarantine().contains(outcome.best_config.key()));
    EXPECT_NE(injector.decide(outcome.best_config).kind,
              fault::FaultKind::kMiscompile);
    EXPECT_GT(outcome.cost.invocations, 0u);
  }
}

TEST_F(FaultTuningTest, ChosenConfigUsuallyMatchesFaultFreeBaseline) {
  Setup s = setup("SWIM");
  // Adoption decisions must be solid for exact-config agreement to be a
  // meaningful robustness metric: at the default 1% threshold the search
  // also picks up ~0.6% jitter flags whose adoption is itself a coin
  // flip of the noise stream. 1.5% keeps the real (story) effects and
  // drops the marginal ones, so disagreement below measures fault
  // damage, not noise.
  search::IterativeEliminationOptions ie;
  ie.improvement_threshold = 1.015;
  // The fault-free control runs the same guard + validation machinery
  // (an injector that never fires), so any winner disagreement below is
  // caused by injected faults, not by validation's extra invocations.
  fault::FaultModel none;
  none.fault_prob = 0.0;
  const fault::FaultInjector no_faults(none);
  DriverOptions clean_options;
  clean_options.ie = ie;
  clean_options.fault.injector = &no_faults;
  TuningDriver clean(*s.workload, s.profile, s.train, machine_, effects_,
                     clean_options);
  const search::FlagConfig baseline = clean.tune_auto().best_config;

  int matches = 0;
  const int seeds = 10;
  for (int seed = 1; seed <= seeds; ++seed) {
    const fault::FaultInjector injector =
        sweep_injector(static_cast<std::uint64_t>(seed));
    DriverOptions options;
    options.ie = ie;
    options.fault.injector = &injector;
    TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                        effects_, options);
    if (driver.tune_auto().best_config == baseline) ++matches;
  }
  // Faults may occasionally hide a genuinely good config (it gets
  // quarantined or rated 0), but on >= 90% of fault seeds the tuner must
  // land on the fault-free answer.
  EXPECT_GE(matches, 9) << matches << "/" << seeds
                        << " seeds matched the fault-free winner";
}

TEST_F(FaultTuningTest, QuarantinedConfigIsSkippedBySearch) {
  Setup s = setup("SWIM");
  DriverOptions options;
  TuningDriver driver(*s.workload, s.profile, s.train, machine_, effects_,
                      options);
  // Pre-quarantine the first config Iterative Elimination would probe
  // (O3 minus the space's first flag), as a persisted ConfigStore entry
  // from an earlier run would.
  search::FlagConfig poisoned = search::o3_config(effects_.space());
  poisoned.set(0, false);
  driver.quarantine().quarantine(poisoned.key(),
                                 fault::FaultKind::kCrash);

  const TuningOutcome outcome = driver.tune(rating::Method::kCBR);
  bool saw_skip = false;
  for (const search::SearchEvent& ev : outcome.events)
    if (ev.kind == search::SearchEvent::Kind::kQuarantined) saw_skip = true;
  EXPECT_TRUE(saw_skip);
  EXPECT_NE(outcome.best_config, poisoned);
}

TEST_F(FaultTuningTest, GlitchFloodExhaustsWindowsAndAbandonsMethod) {
  // Satellite: with guarded execution off, the only protection left is
  // the rating windows' non-finite-sample guard. A config whose every
  // timing reads as infinity must exhaust the window (dropped samples
  // count toward the budget), surface as RatingNotConverging, and make
  // tune() abandon the method — not loop forever, not rate garbage.
  Setup s = setup("WUPWISE");
  ASSERT_EQ(s.profile.decision.initial(), rating::Method::kCBR);
  const fault::FaultInjector injector = glitch_flood();

  DriverOptions options;
  options.fault.injector = &injector;
  options.fault.guard_execution = false;

  for (rating::Method method :
       {rating::Method::kCBR, rating::Method::kMBR}) {
    SCOPED_TRACE(rating::to_string(method));
    TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                        effects_, options);
    const TuningOutcome outcome = driver.tune(method);
    EXPECT_EQ(outcome.best_config, search::o3_config(effects_.space()));
    EXPECT_EQ(outcome.exhausted_fraction, 1.0);
    ASSERT_FALSE(outcome.events.empty());
    EXPECT_EQ(outcome.events.back().kind,
              search::SearchEvent::Kind::kAbandoned);
  }
}

TEST_F(FaultTuningTest, GuardedAutoTuningSurvivesWhatUnguardedCannot) {
  Setup s = setup("WUPWISE");
  const fault::FaultInjector injector = glitch_flood();

  // Unguarded, the fallback chain ends at RBR, whose measurement pairs
  // surface the glitch as a raw FaultError: the tuner dies. This is the
  // paper driver's blind spot, reproduced on purpose.
  DriverOptions unguarded;
  unguarded.fault.injector = &injector;
  unguarded.fault.guard_execution = false;
  TuningDriver blind(*s.workload, s.profile, s.train, machine_, effects_,
                     unguarded);
  EXPECT_THROW(blind.tune_auto(), fault::FaultError);

  // Guarded, every glitching config fails cleanly into quarantine and
  // tuning completes, returning the only healthy config: -O3 itself.
  DriverOptions guarded;
  guarded.fault.injector = &injector;
  TuningDriver driver(*s.workload, s.profile, s.train, machine_, effects_,
                      guarded);
  const TuningOutcome outcome = driver.tune_auto();
  EXPECT_EQ(outcome.best_config, search::o3_config(effects_.space()));
  EXPECT_GT(driver.quarantine().size(), 0u);
}

}  // namespace
}  // namespace peak::core
