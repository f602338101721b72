#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Observability counters must survive kill-and-resume: a resumed run
/// replays the journal into the metrics registry (and the cost ledger),
/// so dashboards see the same totals an uninterrupted run would have
/// produced — not just the post-crash tail.
class ObsResumeTest : public ::testing::Test {
protected:
  ObsResumeTest() : machine_(sim::sparc2()), effects_(search::gcc33_o3_space()) {}

  void SetUp() override {
    workload_ = workloads::make_workload("SWIM");
    train_ = workload_->trace(workloads::DataSet::kTrain, 42);
    profile_ = profile_workload(*workload_, train_, machine_);
  }

  static std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
  }

  /// The counters the resume path must keep continuous, plus the window
  /// occupancy histogram flattened into the same map.
  static std::map<std::string, std::uint64_t> rating_metrics() {
    const obs::MetricsRegistry::Snapshot snap =
        obs::MetricsRegistry::global().snapshot();
    std::map<std::string, std::uint64_t> out;
    for (const char* name :
         {"rating.started", "rating.converged", "rating.exhausted",
          "rating.invocations", "search.configs_evaluated"}) {
      const auto it = snap.counters.find(name);
      out[name] = it == snap.counters.end() ? 0 : it->second;
    }
    const auto hist = snap.histograms.find("rating.window_samples");
    if (hist != snap.histograms.end()) {
      out["hist.count"] = hist->second.count;
      for (std::size_t i = 0; i < hist->second.counts.size(); ++i)
        out["hist.bucket" + std::to_string(i)] = hist->second.counts[i];
    }
    return out;
  }

  TuningOutcome run(const DriverOptions& options, rating::Method method) {
    obs::MetricsRegistry::global().reset();
    obs::Ledger::global().reset();
    TuningDriver driver(*workload_, profile_, train_, machine_, effects_,
                        options);
    return driver.tune(method);
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
  std::unique_ptr<workloads::Workload> workload_;
  workloads::Trace train_;
  ProfileData profile_;
};

TEST_F(ObsResumeTest, FullReplayRestoresCountersAndHistogram) {
  const std::string path = temp_path("obs_journal_full.jsonl");
  DriverOptions options;
  options.fault.journal_path = path;
  const TuningOutcome original = run(options, rating::Method::kCBR);
  const auto uninterrupted = rating_metrics();
  ASSERT_GT(uninterrupted.at("rating.started"), 0u);
  ASSERT_GT(uninterrupted.at("hist.count"), 0u);

  options.fault.resume = true;
  const TuningOutcome resumed = run(options, rating::Method::kCBR);
  EXPECT_EQ(resumed, original);
  EXPECT_EQ(rating_metrics(), uninterrupted)
      << "replaying a complete journal must restore every rating counter";
}

TEST_F(ObsResumeTest, KillAndResumeKeepsMetricsContinuous) {
  const std::string path = temp_path("obs_journal_kill.jsonl");
  DriverOptions options;
  options.fault.journal_path = path;
  const TuningOutcome original = run(options, rating::Method::kCBR);
  const auto uninterrupted = rating_metrics();

  // Kill the run partway: keep about half the records, and the partial
  // line the dying process was writing.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 4u);
  const std::string cut = temp_path("obs_journal_kill_cut.jsonl");
  {
    std::ofstream out(cut);
    for (std::size_t i = 0; i < 1 + (lines.size() - 1) / 2; ++i)
      out << lines[i] << '\n';
    out << R"({"type":"rating","key":"dead)";  // no trailing newline
  }

  DriverOptions resume_options;
  resume_options.fault.journal_path = cut;
  resume_options.fault.resume = true;
  const TuningOutcome resumed = run(resume_options, rating::Method::kCBR);
  EXPECT_EQ(resumed, original);
  EXPECT_EQ(rating_metrics(), uninterrupted)
      << "counters after kill+resume must equal the uninterrupted run's";

  // The ledger reconciles too: replayed ratings restore the backend's
  // cycle breakdown, so the resumed run's attribution matches end-to-end.
  const obs::Ledger::Node root = obs::Ledger::global().snapshot();
  EXPECT_LE(obs::conservation_error(root), 1e-3);
  const obs::MetricsRegistry::Snapshot snap =
      obs::MetricsRegistry::global().snapshot();
  const auto timed = snap.gauges.find("sim.cycles_timed");
  ASSERT_NE(timed, snap.gauges.end());
  EXPECT_NEAR(obs::phase_total_cycles(root, "timed"), timed->second,
              1e-3 * std::max(timed->second, 1.0));
}

}  // namespace
}  // namespace peak::core
