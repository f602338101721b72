#pragma once

/// \file remote_eval.hpp
/// The measurement contract between a distributed-tuning coordinator and
/// a remote `peak worker` agent (`peak::dist`, see docs/INTERNALS.md §13).
///
/// PEAK's batched ratings are pure functions of content: a member's
/// measurement stream is reseeded from (run seed, section, base bits,
/// candidate bits), it runs on a freshly-reset backend clone, and its
/// entire effect on the run is a buffered delta merged in canonical
/// order. That purity is what makes remote execution sound — a worker on
/// another machine only needs (a) the same deterministic scenario
/// (benchmark, machine model, trace recipe, rating policies) and (b) the
/// member's descriptor (core::MemberTask: method, config bits, stream
/// seed, the memo EVALs the member may read) to reproduce the member's
/// delta bit-exactly. SessionSpec carries (a) once per connection; the
/// MemberTask every transport rates from carries (b) once per rating.
///
/// Fault injection is coordinator-side state (retry and quarantine
/// verdicts depend on attempt history), so distributed mode refuses to
/// run with an injector installed — the same soundness rule the
/// persistent rating cache follows.

#include <cstdint>
#include <memory>
#include <string>

#include "core/rating_delta.hpp"
#include "core/tuning_driver.hpp"
#include "rating/rating.hpp"

namespace peak::core {

/// Everything a worker needs to rebuild the tuning scenario: names are
/// resolved against the same registries on both sides (workloads,
/// machine models, the GCC 3.3 -O3 space), and the numeric policy fields
/// pin down every knob a rating's outcome depends on.
struct SessionSpec {
  std::string benchmark;        ///< workloads::make_workload() name
  std::string machine;          ///< "sparc2" | "p4"
  std::string dataset = "train";  ///< workloads::DataSet
  std::uint64_t trace_seed = 42;
  std::uint64_t seed = 1;       ///< DriverOptions::seed
  rating::WindowPolicy window{};
  rating::MbrPolicy mbr{};
  bool improved_rbr = true;
  std::size_t rbr_batch_pairs = 1;

  friend bool operator==(const SessionSpec&, const SessionSpec&) = default;
};

/// SessionSpec for this driver configuration — the CLI builds it from the
/// exact DriverOptions it is about to tune with, so the spec cannot drift
/// from the run it describes.
[[nodiscard]] SessionSpec make_session_spec(const std::string& benchmark,
                                            const std::string& machine,
                                            const DriverOptions& options);

/// Worker-side rating host: owns one reconstructed scenario (workload,
/// trace, profile, machine, effect model, driver) and rates member tasks
/// through the exact batch-member code path the in-process driver uses,
/// returning the encoded RatingDelta (core/rating_delta.hpp) the
/// coordinator merges. Construction does the expensive part (profiling);
/// rate() is then cheap per task. Throws support::CheckError for an
/// unknown benchmark/machine/dataset.
class RemoteRatingHost {
public:
  explicit RemoteRatingHost(const SessionSpec& spec);
  ~RemoteRatingHost();

  RemoteRatingHost(const RemoteRatingHost&) = delete;
  RemoteRatingHost& operator=(const RemoteRatingHost&) = delete;

  /// Encoded RatingDelta for one task (see
  /// TuningDriver::rate_remote_member).
  [[nodiscard]] std::string rate(const MemberTask& task);

  [[nodiscard]] const SessionSpec& spec() const { return spec_; }

private:
  struct State;
  SessionSpec spec_;
  std::unique_ptr<State> state_;
};

}  // namespace peak::core
