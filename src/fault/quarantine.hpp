#pragma once

/// \file quarantine.hpp
/// Registry of configurations the tuner must never measure again. A config
/// enters quarantine when it fails deterministically often enough (crash /
/// hang retry budget exhausted) or immediately on a validation failure
/// (miscompiled output). The search algorithms consult the registry
/// through ConfigEvaluator::excluded() and skip quarantined flag sets, so
/// the search degrades gracefully instead of aborting; core::ConfigStore
/// persists the entries beside the tuned configurations. Each rating
/// member decides on its own copy, so the registry counts nothing: the
/// driver counts `fault.quarantined` once, where a member's delta merges.
///
/// All operations take an internal mutex: the telemetry server's
/// /quarantine endpoint reads the table (via snapshot()) from its worker
/// threads while the driver mutates it. entries() stays lock-free and is
/// only safe on the mutating thread (persistence, tests).

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "fault/fault.hpp"

namespace peak::fault {

class Quarantine {
public:
  struct Entry {
    FaultKind kind = FaultKind::kNone;  ///< kind of the decisive failure
    std::size_t failures = 0;           ///< observed failure count
    bool quarantined = false;
  };

  Quarantine() = default;
  /// Copyable (each rating member carries its own registry, seeded from
  /// its task): the source is read under its lock; the mutex itself is
  /// not copied.
  Quarantine(const Quarantine& other);
  Quarantine& operator=(const Quarantine& other);

  [[nodiscard]] bool contains(const std::string& config_key) const;
  [[nodiscard]] std::optional<FaultKind> kind_of(
      const std::string& config_key) const;

  /// Record one observed failure. Once the count reaches `threshold` the
  /// config is quarantined; returns true when this call crossed it.
  bool record_failure(const std::string& config_key, FaultKind kind,
                      std::size_t threshold);

  /// Quarantine immediately (validation failures: a wrong answer is
  /// disqualifying on the first observation). Returns true when the
  /// config was not quarantined before.
  bool quarantine(const std::string& config_key, FaultKind kind);

  /// Restore a failure count verbatim (a merged rating delta), and with
  /// `quarantined` the verdict too (a rating member's view of the
  /// registry).
  void restore_failures(const std::string& config_key, FaultKind kind,
                        std::size_t failures, bool quarantined = false);

  [[nodiscard]] std::size_t failures_of(
      const std::string& config_key) const;

  /// Number of quarantined configs (not merely failure-counted ones).
  [[nodiscard]] std::size_t size() const;

  /// Direct view for same-thread use (persistence, tests). Not
  /// synchronized — concurrent readers must use snapshot().
  [[nodiscard]] const std::map<std::string, Entry>& entries() const {
    return entries_;
  }

  /// Point-in-time copy of the table, safe to take from any thread while
  /// the driver keeps recording failures (the /quarantine endpoint).
  [[nodiscard]] std::map<std::string, Entry> snapshot() const;

  void clear();

private:
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace peak::fault
