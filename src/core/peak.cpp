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

SessionSpec session_spec(const PeakOptions& options,
                         const std::string& benchmark,
                         const std::string& machine) {
  return {.benchmark = benchmark,
          .machine = machine,
          .trace_seed = support::hash_combine(
              options.seed, support::stable_hash(benchmark)),
          .effect_seed = options.seed ^ 0x9eac,
          .profile = options.profile,
          .seed = options.driver.seed,
          .window = options.driver.window,
          .mbr = options.driver.mbr,
          .improved_rbr = options.driver.improved_rbr,
          .rbr_batch_pairs = options.driver.rbr_batch_pairs};
}

namespace {

/// One experiment's row: the outcome, and its winner measured on ref.
MethodRun method_run(const Session& session, const TuningOutcome& outcome,
                     workloads::DataSet tuned_on) {
  MethodRun run;
  run.method = outcome.method;
  run.tuned_on = tuned_on;
  run.best_config = outcome.best_config;
  run.cost = outcome.cost;
  run.exhausted_fraction = outcome.exhausted_fraction;
  run.ref_improvement_pct = session.ref_improvement_pct(outcome.best_config);
  return run;
}

}  // namespace

// The effect model does not depend on the section, so any name will do.
Peak::Peak(const sim::MachineModel& machine, PeakOptions options)
    : machine_(machine),
      options_(options),
      effects_(search::gcc33_o3_space(),
               session_spec(options, "", machine.name).effect_seed) {}

BenchmarkResult Peak::run_benchmark(const workloads::Workload& workload,
                                    bool all_methods,
                                    std::vector<rating::Method> extra_methods) {
  const Session session(
      session_spec(options_, workload.benchmark(), machine_.name), &workload,
      machine_);
  const ProfileData& profile = session.profile();

  BenchmarkResult result;
  result.benchmark = workload.benchmark();
  result.ts_name = workload.ts_name();
  result.decision = profile.decision;
  result.chosen = profile.decision.initial();

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
    result.runs.push_back(method_run(
        session, session.driver(options_.driver).tune(m),
        workloads::DataSet::kTrain));
    if (all_methods) {
      // The right bars of Figure 7: tuning with the production (ref)
      // dataset, for comparison with the honest train-tuned result.
      const workloads::Trace& ref = session.ref_trace();
      const ProfileData ref_profile =
          profile_workload(workload, ref, machine_, options_.profile);
      TuningDriver driver(workload, ref_profile, ref, session.machine(),
                          session.effects(), options_.driver);
      result.runs.push_back(
          method_run(session, driver.tune(m), workloads::DataSet::kRef));
    }
  }
  return result;
}

MethodRun Peak::tune(const workloads::Workload& workload,
                     std::optional<rating::Method> method) {
  const Session session(
      session_spec(options_, workload.benchmark(), machine_.name), &workload,
      machine_);
  TuningDriver driver = session.driver(options_.driver);
  return method_run(session, method ? driver.tune(*method) : driver.tune_auto(),
                    workloads::DataSet::kTrain);
}

}  // namespace peak::core
