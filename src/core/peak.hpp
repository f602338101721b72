#pragma once

/// \file peak.hpp
/// The PEAK pipeline (paper Figure 5): TS Selector → Rating Approach
/// Consultant → instrumentation → Performance Tuning Driver → improved
/// code version. This facade runs the full offline scenario for one
/// benchmark on one simulated machine: profile on the tuning dataset,
/// tune with one or all rating methods, and evaluate the winning
/// configuration on the production (ref) dataset — producing exactly the
/// quantities plotted in Figure 7.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/session.hpp"
#include "core/tuning_driver.hpp"
#include "sim/flag_effects.hpp"
#include "workloads/workload.hpp"

namespace peak::core {

struct PeakOptions {
  DriverOptions driver{};
  ProfileOptions profile{};
  std::uint64_t seed = 1;
};

/// The scenario Peak tunes `benchmark` in on `machine`: traces seeded by
/// `options.seed` and the section's name, the effect model by
/// `options.seed` alone — the only place either seed is derived.
[[nodiscard]] SessionSpec session_spec(const PeakOptions& options,
                                       const std::string& benchmark,
                                       const std::string& machine);

/// One (rating method × tuning dataset) experiment for a benchmark.
struct MethodRun {
  rating::Method method = rating::Method::kWHL;
  workloads::DataSet tuned_on = workloads::DataSet::kTrain;
  search::FlagConfig best_config;
  /// Improvement over -O3 measured on the ref dataset, percent.
  double ref_improvement_pct = 0.0;
  TuningCost cost;
  double exhausted_fraction = 0.0;
};

struct BenchmarkResult {
  std::string benchmark;
  std::string ts_name;
  rating::MethodDecision decision;  ///< consultant's chain
  rating::Method chosen = rating::Method::kWHL;  ///< consultant's pick
  std::vector<MethodRun> runs;

  /// Look up one experiment.
  [[nodiscard]] const MethodRun* find(rating::Method m,
                                      workloads::DataSet ds) const;

  /// Tuning time of a run normalised to the WHL run on the same dataset
  /// (Figure 7 c, d). Returns 0 when either run is missing.
  [[nodiscard]] double normalized_tuning_time(rating::Method m,
                                              workloads::DataSet ds) const;
};

class Peak {
public:
  Peak(const sim::MachineModel& machine, PeakOptions options = {});

  /// Full experiment for one benchmark: profile, tune with every
  /// applicable rating method plus AVG and WHL, on both train and ref
  /// tuning datasets; improvements are always measured on ref.
  /// `extra_methods` forces additional methods outside the consultant's
  /// chain — Figure 7 deliberately includes the *wrong* choices
  /// (MGRID_CBR, SWIM_RBR) to show their tuning-time penalty.
  BenchmarkResult run_benchmark(
      const workloads::Workload& workload, bool all_methods = true,
      std::vector<rating::Method> extra_methods = {});

  /// PEAK's production mode on the train dataset: profile, tune with
  /// `method` (none: the consultant's chain, switching methods when
  /// ratings do not converge), and measure the winner on ref.
  MethodRun tune(const workloads::Workload& workload,
                 std::optional<rating::Method> method);

  /// PEAK's production mode: consultant-chosen method, train dataset.
  MethodRun tune_with_consultant(const workloads::Workload& workload) {
    return tune(workload, std::nullopt);
  }

  [[nodiscard]] const sim::MachineModel& machine() const {
    return machine_;
  }
  [[nodiscard]] const sim::FlagEffectModel& effects() const {
    return effects_;
  }

private:
  /// Stored by value: callers routinely pass temporaries
  /// (`Peak(sim::sparc2())`), and every profile/tune call reads the
  /// machine long after that full expression ends.
  sim::MachineModel machine_;
  PeakOptions options_;
  sim::FlagEffectModel effects_;
};

}  // namespace peak::core
