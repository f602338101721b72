#pragma once

/// \file session.hpp
/// One tuning scenario, built in one place. PEAK tunes a section on the
/// train input and reports the winner's improvement on the ref input
/// (paper Figure 7), so a number depends on the section, the machine,
/// both inputs, the effect model and the profile. SessionSpec names them
/// all, plus the driver's rating policy; Session builds the scenario.
/// Peak::tune, `peak tune` under every flag, `peak apply` and `peak
/// worker` all go through one.
///
/// The spec is also the contract of distributed tuning (docs/INTERNALS.md
/// §13). A batched rating is a pure function of content, so a worker
/// reproduces a member's delta bit-exactly from the scenario (the spec of
/// the coordinator's own Session, shipped once per connection) and the
/// member's MemberTask. Anything that affects a rating must be in the
/// spec.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/profile.hpp"
#include "core/rating_delta.hpp"
#include "core/tuning_driver.hpp"
#include "rating/rating.hpp"
#include "sim/flag_effects.hpp"
#include "workloads/workload.hpp"

namespace peak::core {

/// Names resolve against the same registries on every host (workloads,
/// machine models, the GCC 3.3 -O3 space); core::session_spec() derives
/// the spec Peak tunes in.
struct SessionSpec {
  std::string benchmark;          ///< workloads::make_workload() name
  std::string machine;            ///< "sparc2" | "p4"
  std::string dataset = "train";  ///< tuning dataset (workloads::DataSet)
  std::uint64_t trace_seed = 42;  ///< seeds the train and the ref trace
  std::uint64_t effect_seed = 0x9eac;  ///< sim::FlagEffectModel seed
  ProfileOptions profile{};
  // The driver's rating policy (the DriverOptions fields of that name).
  std::uint64_t seed = 1;
  rating::WindowPolicy window{};
  rating::MbrPolicy mbr{};
  bool improved_rbr = true;
  std::size_t rbr_batch_pairs = 1;

  friend bool operator==(const SessionSpec&, const SessionSpec&) = default;
};

/// The scenario of one spec: the machine, the effect model, both traces
/// and the profile, and every driver that tunes or rates in them. Traces,
/// profile and the ref backend are built on first use (not thread-safe),
/// so `peak apply` runs no profile and a worker generates no ref trace.
class Session {
public:
  /// Resolves the spec's benchmark and machine by name, as `peak worker`
  /// does, unless the caller passes its own workload (custom ones too) or
  /// machine model. Throws support::CheckError for an unknown dataset or
  /// name, or a workload or machine the spec does not name.
  explicit Session(SessionSpec spec,
                   const workloads::Workload* workload = nullptr,
                   std::optional<sim::MachineModel> machine = std::nullopt);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const SessionSpec& spec() const { return spec_; }
  [[nodiscard]] const workloads::Workload& workload() const {
    return *workload_;
  }
  [[nodiscard]] const sim::MachineModel& machine() const { return machine_; }
  [[nodiscard]] const sim::FlagEffectModel& effects() const {
    return effects_;
  }
  /// The spec's tuning dataset: the train trace, or the ref trace itself.
  [[nodiscard]] const workloads::Trace& tune_trace() const;
  [[nodiscard]] const workloads::Trace& ref_trace() const;
  /// The profile run on the tuning trace.
  [[nodiscard]] const ProfileData& profile() const;

  /// A driver on this scenario: `options` adds a journal, a rating cache,
  /// a fault injector, the guard switch, slot threads or a transport; the
  /// rating policy is the spec's. A coordinator must ship this spec.
  [[nodiscard]] TuningDriver driver(DriverOptions options) const;

  /// Improvement of `config` over -O3 on the ref trace, percent: what
  /// `peak tune` reports and `peak apply` re-measures. All passes of a
  /// session run on one backend, so only the first computes base runs.
  [[nodiscard]] double ref_improvement_pct(
      const search::FlagConfig& config) const;

  /// Worker side: one shipped member's encoded RatingDelta
  /// (TuningDriver::rate_remote_member), on one driver per session.
  [[nodiscard]] std::string rate(const MemberTask& task);

private:
  SessionSpec spec_;
  std::unique_ptr<workloads::Workload> owned_;  ///< null: caller-owned
  const workloads::Workload* workload_;
  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
  mutable std::optional<workloads::Trace> train_;
  mutable std::optional<workloads::Trace> ref_;
  mutable std::optional<ProfileData> profile_;
  /// Prices every ref pass of ref_improvement_pct().
  mutable std::unique_ptr<sim::SimExecutionBackend> ref_backend_;
  mutable std::optional<double> ref_o3_time_;
  std::unique_ptr<TuningDriver> rater_;  ///< rate()'s driver
};

}  // namespace peak::core
