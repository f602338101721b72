#pragma once

/// \file rating_delta.hpp
/// What one rating reads (MemberTask) and what it did to the tuning
/// driver (RatingDelta, with its one encoding).
///
/// A batched rating runs on a freshly reset backend clone with its task's
/// content-seeded measurement stream, reads no memo EVAL, quarantine
/// entry or validation verdict but the task's, and buffers every effect
/// it has — its R value, memo entries, validations, quarantine counts,
/// fault events, counter advances and simulated-cycle costs — in a
/// RatingDelta. The driver folds deltas into its state in canonical
/// candidate order, whether the delta was computed on a pool thread,
/// shipped back from a forked worker or a TCP worker, or found under its
/// task's key in the rating cache or, on resume, in the journal. All
/// carry the same single-line JSON object (core/jsonl dialect: doubles
/// as IEEE-754 bit patterns, so a round trip is exact).

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
#include "rating/rating.hpp"
#include "sim/exec_backend.hpp"

namespace peak::core {

/// Raised when a rating method cannot produce any estimate within its
/// sample budget; tune_auto() responds by switching down the method chain
/// (paper Section 3).
struct RatingNotConverging : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One config's quarantine entry (fault::Quarantine::Entry with its key):
/// what a member reads of the registry, and what it leaves there.
struct FaultRecord {
  std::string key;
  fault::FaultKind kind = fault::FaultKind::kNone;
  std::uint64_t failures = 0;
  bool quarantined = false;

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// One batch member: rate `cfg_key` against `base_key` with `method`.
/// Built once per member, after the batch's prologue has merged, it is
/// all a rating reads besides the scenario (and the run's fault
/// settings): the stream seed, the merged memo EVALs and quarantine
/// entries of the base and the candidate, and the candidate's validation
/// verdict (all a rating ever looks up). Slot threads rate from it,
/// forked workers and the TCP fleet receive it encoded in their run and
/// task frames, and the rating cache and the journal key on its digest,
/// so none can disagree on what a rating depends on.
struct MemberTask {
  rating::Method method = rating::Method::kWHL;
  std::string base_key;  ///< FlagConfig::key() ("0"/"1" per flag)
  std::string cfg_key;
  bool prologue = false;  ///< rates the base EVAL only
  std::uint64_t seed = 0; ///< content-derived member stream seed
  /// Memo EVALs the member may read (config key → EVAL), base first.
  std::vector<std::pair<std::string, double>> memo;
  /// Quarantine entries of the base and the candidate, base first, for
  /// the keys the registry holds (a guarded rating consults no other).
  std::vector<FaultRecord> faults;
  /// The candidate's output digest already passed validation.
  bool validated = false;

  /// One JSON object on one line: what a forked worker reads from its
  /// run frame. Doubles travel as bit patterns, so a round trip is exact.
  [[nodiscard]] std::string encode() const;
  /// Appends encode()'s members, without the braces, to `out`, so a
  /// record may carry them next to its own (the dist task frame does).
  void encode_members(std::string& out) const;
  /// Inverse of encode(); reads the task's members of any object and
  /// ignores the rest. Throws support::CheckError on damaged input: a
  /// missing or mistyped member, an unknown method or fault kind, or a
  /// config key that is not a 0/1 string.
  [[nodiscard]] static MemberTask decode(const jsonl::JsonValue& j);

  friend bool operator==(const MemberTask&, const MemberTask&) = default;
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
  std::vector<FaultRecord> fails;
  /// Fault events the guarded executor reported, in order.
  std::vector<fault::FaultEvent> events;
  std::uint64_t invocations = 0;
  std::uint64_t ratings_started = 0;
  std::uint64_t exhausted = 0;
  double whole_program_surcharge = 0.0;
  /// Last MBR regression residual the rating reported (MBR only).
  std::optional<double> mbr_residual;
  /// Simulated-cycle cost of the rating, per phase.
  sim::Costs cost;
  /// Set when the rating was abandoned; the merge rethrows it after
  /// applying the rest of the delta. Encoded as a (tag, what) pair and
  /// decoded to RatingNotConverging ("rnc"), support::CheckError
  /// ("check") or std::runtime_error ("std").
  std::exception_ptr error;

  /// One JSON object on one line. Empty lists, a missing residual and a
  /// missing error are omitted.
  [[nodiscard]] std::string encode() const;
  /// Appends encode()'s object to `out`.
  void encode_to(std::string& out) const;
  /// Inverse of encode(). Keys it does not know are ignored, so a record
  /// may carry the delta's fields next to its own. Throws std::exception
  /// (support::CheckError, or std::out_of_range from a real number past
  /// a double's range) on damaged input.
  [[nodiscard]] static RatingDelta decode(const jsonl::JsonValue& j);
};

}  // namespace peak::core
