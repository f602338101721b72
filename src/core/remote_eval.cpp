#include "core/remote_eval.hpp"

#include "core/profile.hpp"
#include "search/opt_config.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"
#include "workloads/workload.hpp"

namespace peak::core {

SessionSpec make_session_spec(const std::string& benchmark,
                              const std::string& machine,
                              const DriverOptions& options) {
  SessionSpec spec;
  spec.benchmark = benchmark;
  spec.machine = machine;
  spec.seed = options.seed;
  spec.window = options.window;
  spec.mbr = options.mbr;
  spec.improved_rbr = options.improved_rbr;
  spec.rbr_batch_pairs = options.rbr_batch_pairs;
  return spec;
}

/// The scenario objects TuningDriver holds by reference, owned here so a
/// worker can keep one host alive across the whole session.
struct RemoteRatingHost::State {
  std::unique_ptr<workloads::Workload> workload;
  workloads::Trace trace;
  sim::MachineModel machine;
  sim::FlagEffectModel effects{search::gcc33_o3_space()};
  ProfileData profile;
  std::unique_ptr<TuningDriver> driver;
};

RemoteRatingHost::RemoteRatingHost(const SessionSpec& spec)
    : spec_(spec), state_(std::make_unique<State>()) {
  state_->workload = workloads::make_workload(spec.benchmark);
  PEAK_CHECK(state_->workload != nullptr,
             "remote session: unknown benchmark '" + spec.benchmark + "'");
  workloads::DataSet ds = workloads::DataSet::kTrain;
  if (spec.dataset == workloads::to_string(workloads::DataSet::kRef))
    ds = workloads::DataSet::kRef;
  else
    PEAK_CHECK(spec.dataset ==
                   workloads::to_string(workloads::DataSet::kTrain),
               "remote session: unknown dataset '" + spec.dataset + "'");
  state_->machine =
      spec.machine == "p4" ? sim::pentium4() : sim::sparc2();
  PEAK_CHECK(spec.machine == "p4" || spec.machine == "sparc2",
             "remote session: unknown machine '" + spec.machine + "'");
  state_->trace = state_->workload->trace(ds, spec.trace_seed);
  state_->profile = profile_workload(*state_->workload, state_->trace,
                                     state_->machine);

  // The worker-side driver rates members only — no journal, no cache, no
  // fault layer (distributed mode refuses injectors before it gets
  // here).
  DriverOptions options;
  options.seed = spec.seed;
  options.window = spec.window;
  options.mbr = spec.mbr;
  options.improved_rbr = spec.improved_rbr;
  options.rbr_batch_pairs = spec.rbr_batch_pairs;
  state_->driver = std::make_unique<TuningDriver>(
      *state_->workload, state_->profile, state_->trace, state_->machine,
      state_->effects, options);
}

RemoteRatingHost::~RemoteRatingHost() = default;

std::string RemoteRatingHost::rate(const MemberTask& task) {
  return state_->driver->rate_remote_member(task);
}

}  // namespace peak::core
