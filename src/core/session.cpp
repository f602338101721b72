#include "core/session.hpp"

#include "dist/coordinator.hpp"
#include "obs/trace.hpp"
#include "search/opt_config.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace peak::core {

Session::Session(SessionSpec spec, const workloads::Workload* workload,
                 std::optional<sim::MachineModel> machine)
    : spec_(std::move(spec)),
      owned_(workload ? nullptr : workloads::make_workload(spec_.benchmark)),
      workload_(workload ? workload : owned_.get()),
      machine_(machine                 ? std::move(*machine)
               : spec_.machine == "p4" ? sim::pentium4()
                                       : sim::sparc2()),
      effects_(search::gcc33_o3_space(), spec_.effect_seed) {
  PEAK_CHECK(workload_ != nullptr && workload_->benchmark() == spec_.benchmark,
             "session: unknown benchmark '" + spec_.benchmark + "'");
  PEAK_CHECK(machine_.name == spec_.machine,
             "session: unknown machine '" + spec_.machine + "'");
  PEAK_CHECK(spec_.dataset == "train" || spec_.dataset == "ref",
             "session: unknown dataset '" + spec_.dataset + "'");
}

namespace {

workloads::Trace generate(const workloads::Workload& workload,
                          workloads::DataSet dataset, std::uint64_t seed) {
  obs::ScopedSpan span("trace", "workloads");
  if (span.active()) {
    span.add(obs::attr("section", workload.full_name()));
    span.add(obs::attr("dataset", workloads::to_string(dataset)));
  }
  return workload.trace(dataset, seed);
}

}  // namespace

const workloads::Trace& Session::tune_trace() const {
  if (spec_.dataset == "ref") return ref_trace();
  if (!train_)
    train_ = generate(*workload_, workloads::DataSet::kTrain, spec_.trace_seed);
  return *train_;
}

const workloads::Trace& Session::ref_trace() const {
  if (!ref_)
    ref_ = generate(*workload_, workloads::DataSet::kRef, spec_.trace_seed);
  return *ref_;
}

const ProfileData& Session::profile() const {
  if (!profile_)
    profile_ =
        profile_workload(*workload_, tune_trace(), machine_, spec_.profile);
  return *profile_;
}

TuningDriver Session::driver(DriverOptions options) const {
  PEAK_CHECK(options.coordinator == nullptr ||
                 options.coordinator->spec() == spec_,
             "the worker fleet was formed for another scenario than this "
             "session's");
  options.seed = spec_.seed;
  options.window = spec_.window;
  options.mbr = spec_.mbr;
  options.improved_rbr = spec_.improved_rbr;
  options.rbr_batch_pairs = spec_.rbr_batch_pairs;
  return TuningDriver(*workload_, profile(), tune_trace(), machine_, effects_,
                      options);
}

double Session::ref_improvement_pct(const search::FlagConfig& config) const {
  obs::ScopedSpan span("ref_eval", "session");
  if (span.active()) span.add(obs::attr("section", workload_->full_name()));
  // Every pass prices the same invocations, so only the first computes
  // base runs; the passes after it hit its table. expected_time() draws
  // no noise, so a shared backend prices each pass as a fresh one would.
  if (!ref_backend_)
    ref_backend_ = trace_backend(*workload_, ref_trace(), machine_, effects_);
  if (!ref_o3_time_)
    ref_o3_time_ = expected_trace_time(*ref_backend_, ref_trace(),
                                       search::o3_config(effects_.space()));
  const double tuned = expected_trace_time(*ref_backend_, ref_trace(), config);
  PEAK_CHECK(tuned > 0.0, "degenerate ref evaluation");
  return (*ref_o3_time_ / tuned - 1.0) * 100.0;
}

std::string Session::rate(const MemberTask& task) {
  // The worker-side driver rates members only: no journal, no cache, no
  // fault layer (distributed mode refuses injectors before it gets here).
  if (!rater_) rater_.reset(new TuningDriver(driver({})));
  return rater_->rate_remote_member(task);
}

}  // namespace peak::core
