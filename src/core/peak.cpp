#include "core/peak.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace peak::core {

const MethodRun* BenchmarkResult::find(rating::Method m,
                                       workloads::DataSet ds) const {
  for (const MethodRun& r : runs)
    if (r.method == m && r.tuned_on == ds) return &r;
  return nullptr;
}

double BenchmarkResult::normalized_tuning_time(rating::Method m,
                                               workloads::DataSet ds) const {
  const MethodRun* run = find(m, ds);
  const MethodRun* whl = find(rating::Method::kWHL, ds);
  if (!run || !whl || whl->cost.simulated_time <= 0.0) return 0.0;
  return run->cost.simulated_time / whl->cost.simulated_time;
}

Peak::Peak(const sim::MachineModel& machine, PeakOptions options)
    : machine_(machine),
      options_(options),
      effects_(search::gcc33_o3_space(), options.seed ^ 0x9eac) {}

MethodRun Peak::run_one(const workloads::Workload& workload,
                        const ProfileData& profile,
                        const workloads::Trace& tune_trace,
                        const workloads::Trace& ref_trace,
                        workloads::DataSet tuned_on,
                        std::optional<rating::Method> method,
                        double ref_o3_time) {
  TuningDriver driver(workload, profile, tune_trace, machine_, effects_,
                      options_.driver);
  const TuningOutcome outcome =
      method ? driver.tune(*method) : driver.tune_auto();

  MethodRun run;
  run.method = outcome.method;
  run.tuned_on = tuned_on;
  run.best_config = outcome.best_config;
  run.cost = outcome.cost;
  run.exhausted_fraction = outcome.exhausted_fraction;

  const double tuned_time = expected_trace_time(
      workload, ref_trace, machine_, effects_, outcome.best_config);
  PEAK_CHECK(tuned_time > 0.0, "degenerate ref evaluation");
  run.ref_improvement_pct = (ref_o3_time / tuned_time - 1.0) * 100.0;
  return run;
}

BenchmarkResult Peak::run_benchmark(const workloads::Workload& workload,
                                    bool all_methods,
                                    std::vector<rating::Method> extra_methods) {
  const std::uint64_t trace_seed =
      support::hash_combine(options_.seed,
                            support::stable_hash(workload.benchmark()));
  const workloads::Trace train =
      workload.trace(workloads::DataSet::kTrain, trace_seed);
  const workloads::Trace ref =
      workload.trace(workloads::DataSet::kRef, trace_seed);

  const ProfileData profile =
      profile_workload(workload, train, machine_, options_.profile);

  BenchmarkResult result;
  result.benchmark = workload.benchmark();
  result.ts_name = workload.ts_name();
  result.decision = profile.decision;
  result.chosen = profile.decision.initial();

  const search::FlagConfig o3 = search::o3_config(effects_.space());
  const double ref_o3_time =
      expected_trace_time(workload, ref, machine_, effects_, o3);

  std::vector<rating::Method> methods;
  if (all_methods) {
    methods = profile.decision.chain;
    methods.push_back(rating::Method::kAVG);
    methods.push_back(rating::Method::kWHL);
  } else {
    methods = {profile.decision.initial()};
  }
  for (rating::Method m : extra_methods)
    if (std::find(methods.begin(), methods.end(), m) == methods.end())
      methods.push_back(m);

  for (rating::Method m : methods) {
    result.runs.push_back(run_one(workload, profile, train, ref,
                                  workloads::DataSet::kTrain, m,
                                  ref_o3_time));
    if (all_methods) {
      // The right bars of Figure 7: tuning with the production (ref)
      // dataset, for comparison with the honest train-tuned result.
      const ProfileData ref_profile =
          profile_workload(workload, ref, machine_, options_.profile);
      result.runs.push_back(run_one(workload, ref_profile, ref, ref,
                                    workloads::DataSet::kRef, m,
                                    ref_o3_time));
    }
  }
  return result;
}

MethodRun Peak::tune(const workloads::Workload& workload,
                     std::optional<rating::Method> method) {
  const std::uint64_t trace_seed =
      support::hash_combine(options_.seed,
                            support::stable_hash(workload.benchmark()));
  const workloads::Trace train =
      workload.trace(workloads::DataSet::kTrain, trace_seed);
  const workloads::Trace ref =
      workload.trace(workloads::DataSet::kRef, trace_seed);
  const ProfileData profile =
      profile_workload(workload, train, machine_, options_.profile);
  const double ref_o3 = expected_trace_time(
      workload, ref, machine_, effects_, search::o3_config(effects_.space()));
  return run_one(workload, profile, train, ref, workloads::DataSet::kTrain,
                 method, ref_o3);
}

}  // namespace peak::core
