#pragma once

/// \file injector.hpp
/// Deterministic fault injection. The injector layers a seeded fault model
/// onto the execution backend (beside Perturbation): per (FlagConfig,
/// Invocation) it decides whether a crash, hang, miscompile, timer glitch,
/// or checkpoint corruption fires. Two modes compose:
///
///   stochastic  every config draws a fault verdict from a pure hash of
///               (seed, flag bits) — a fixed fraction of the space is
///               faulty, some deterministically (every invocation), the
///               rest transiently (per-invocation firing probability);
///   scripted    exact (config key, invocation id) pairs registered by
///               tests fire a chosen kind, overriding the stochastic draw.
///
/// The injector is stateless (pure hashing, no mutable RNG): the same
/// seed reproduces the same faults in any order, across retries, and
/// across a crash-safe resume — which is what lets the journal and the
/// rating cache key a guarded rating by its inputs and digest().

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "search/opt_config.hpp"

namespace peak::fault {

struct FaultModel {
  /// Probability that a configuration is faulty at all.
  double fault_prob = 0.0;
  /// Relative kind weights among faulty configs (normalized internally).
  double crash_weight = 0.30;
  double hang_weight = 0.20;
  double miscompile_weight = 0.20;
  double glitch_weight = 0.20;
  double checkpoint_weight = 0.10;
  /// Weight of process-killing crashes (abort(), no throw). Zero by
  /// default: every pre-existing seed keeps its exact fault draws, and
  /// hard crashes only appear where a test or sweep opts in (they are
  /// unsurvivable without --isolate-workers).
  double hard_crash_weight = 0.0;
  /// Fraction of faulty crash/glitch/checkpoint configs that fail on every
  /// invocation. Hangs and miscompiles are always deterministic: they are
  /// properties of the generated code, not of the measurement.
  double deterministic_fraction = 0.5;
  /// Per-(invocation, attempt) firing probability for transient faults.
  double transient_fire_prob = 0.35;
  std::uint64_t seed = 0x5eedULL;
};

/// Per-configuration fault verdict, a pure function of (seed, flag bits).
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  bool deterministic = false;
};

/// One scripted fault: fires for the exact (config key, invocation id)
/// pair. `sticky` faults fire on every retry attempt; non-sticky ones
/// only on the first, modelling a transient failure that a retry clears.
struct ScriptedFault {
  std::string config_key;
  std::uint64_t invocation_id = 0;
  FaultKind kind = FaultKind::kNone;
  bool sticky = true;
};

class FaultInjector {
public:
  explicit FaultInjector(FaultModel model = {});

  /// The configuration's fault verdict (kNone for healthy or exempt ones).
  [[nodiscard]] FaultDecision decide(const search::FlagConfig& cfg) const;

  /// Does a fault fire for this (config, invocation, attempt)? Scripted
  /// entries take precedence; otherwise deterministic verdicts always
  /// fire and transient ones fire per the model's probability, hashed
  /// over the invocation id and the retry attempt (so retries of a
  /// transient fault can succeed).
  [[nodiscard]] FaultKind fire(const search::FlagConfig& cfg,
                               std::uint64_t invocation_id,
                               std::size_t attempt) const;

  /// Register an exact (config, invocation) fault for tests.
  void script(ScriptedFault fault);

  /// Exempt a configuration from stochastic faults (the tuner's -O3
  /// start config is shipping production code, known to work).
  void exempt(const search::FlagConfig& cfg);

  [[nodiscard]] const FaultModel& model() const { return model_; }

  /// Digest of everything a verdict depends on — the model, the
  /// exemptions and the scripted faults — for the run fingerprint that
  /// rating-cache and journal keys start from.
  [[nodiscard]] std::uint64_t digest() const;

private:
  [[nodiscard]] std::uint64_t config_hash(
      const search::FlagConfig& cfg) const;

  FaultModel model_;
  std::set<std::string> exempt_;
  std::map<std::pair<std::string, std::uint64_t>, ScriptedFault> scripted_;
};

}  // namespace peak::fault
