#pragma once

/// \file rating_delta.hpp
/// What one rating did to the tuning driver, and its one encoding.
///
/// A batched rating is a pure function of (scenario, seed, base bits,
/// candidate bits): it runs on a freshly reset backend clone with a
/// content-seeded measurement stream, reads only frozen shared state, and
/// buffers every effect it has — its R value, memo entries, validations,
/// quarantine counts, fault events, counter advances and simulated-cycle
/// costs — in a RatingDelta. The driver folds deltas into its state in
/// canonical candidate order, whether the delta was computed on a pool
/// thread, shipped back from a forked worker or a TCP worker, loaded from
/// the rating cache, or read back from the journal on resume. All four
/// carry the same single-line JSON object (core/jsonl dialect: doubles as
/// IEEE-754 bit patterns, so a round trip is exact).

#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/jsonl.hpp"
#include "fault/fault.hpp"
#include "fault/guarded_executor.hpp"
#include "sim/exec_backend.hpp"

namespace peak::core {

/// Raised when a rating method cannot produce any estimate within its
/// sample budget; tune_auto() responds by switching down the method chain
/// (paper Section 3).
struct RatingNotConverging : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct RatingDelta {
  double r = 0.0;
  /// EVAL memo entries the rating added (config key → EVAL), in order.
  std::vector<std::pair<std::string, double>> memo;
  /// Config keys whose output digest passed validation.
  std::vector<std::string> validated;
  /// One entry per rating window the rating ran: whether it converged
  /// and how many samples it kept (feeds rating.* and the
  /// window-occupancy histogram).
  struct RatingObs {
    bool converged = false;
    std::uint64_t samples = 0;
  };
  std::vector<RatingObs> robs;
  /// Quarantine state, after the rating, of every config that faulted
  /// during it, sorted by key.
  struct Fail {
    std::string key;
    fault::FaultKind kind = fault::FaultKind::kNone;
    std::uint64_t failures = 0;
    bool quarantined = false;
  };
  std::vector<Fail> fails;
  /// Fault events the guarded executor reported, in order.
  std::vector<fault::FaultEvent> events;
  std::uint64_t invocations = 0;
  std::uint64_t ratings_started = 0;
  std::uint64_t exhausted = 0;
  double whole_program_surcharge = 0.0;
  /// Last MBR regression residual the rating reported (MBR only).
  std::optional<double> mbr_residual;
  /// Simulated-cycle cost of the rating, per phase.
  sim::SimExecutionBackend::CostDeltas cost;
  /// Set when the rating was abandoned; the merge rethrows it after
  /// applying the rest of the delta. Encoded as a (tag, what) pair and
  /// decoded to RatingNotConverging ("rnc"), support::CheckError
  /// ("check") or std::runtime_error ("std").
  std::exception_ptr error;

  /// One JSON object on one line. Empty lists, a missing residual and a
  /// missing error are omitted.
  [[nodiscard]] std::string encode() const;
  /// Inverse of encode(). Keys it does not know are ignored, so a record
  /// may carry the delta's fields next to its own. Throws std::exception
  /// (support::CheckError, std::invalid_argument, std::out_of_range) on
  /// damaged input.
  [[nodiscard]] static RatingDelta decode(const jsonl::JsonValue& j);
};

}  // namespace peak::core
