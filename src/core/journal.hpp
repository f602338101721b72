#pragma once

/// \file journal.hpp
/// Crash-safe tuning journal: an append-only JSONL log of everything the
/// tuning driver decided — configurations tried and, per evaluation, the
/// RatingDelta its rating produced (R value, memo entries, quarantine
/// counts, fault events, counter advances, simulated-cycle costs). A
/// tuning run killed at any point can be resumed from the journal: the
/// deterministic search re-issues the identical probe sequence, and the
/// driver merges the recorded deltas through the same merge step a live
/// rating goes through instead of measuring, then continues live —
/// producing a TuningOutcome bit-identical to the uninterrupted run.
///
/// Doubles are serialized as 16-hex-digit IEEE-754 bit patterns, never as
/// decimal text, so a round trip through the journal is exact.

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/rating_delta.hpp"
#include "support/check.hpp"

namespace peak::core {

/// A journal that cannot be resumed from: it cannot be read, or a strict
/// load met a damaged complete line. what() names the journal (and the
/// line).
class JournalError : public support::CheckError {
public:
  using support::CheckError::CheckError;
};

/// One recorded evaluation: the (base, candidate) pair the search asked
/// about and the delta its rating produced. The first record of a batch
/// also carries the delta of the batch's prologue (the base rating);
/// replay merges the two separately, prologue first, in the order the
/// live path merged them.
struct JournalEval {
  std::string base_key;
  std::string cfg_key;
  std::optional<RatingDelta> prologue;
  RatingDelta delta;
};

/// The evaluations of one tune(method) call, in order, and the run
/// fingerprint of its evaluator (RatingCache::Fingerprint; "" when the
/// start record has none), which a resume must match.
struct JournalSegment {
  std::string method;
  std::string fingerprint;
  std::vector<JournalEval> evals;
};

/// Append-only journal writer. Every record is one JSON object per line,
/// flushed on write, so a kill between lines loses at most the evaluation
/// in flight — which resume then simply re-runs.
class TuningJournal {
public:
  /// Opens `path` for appending (creating it if absent).
  explicit TuningJournal(std::string path);

  /// A tune(method) call is starting a fresh (non-replayed) segment.
  void start_segment(const std::string& method,
                     const std::string& fingerprint);

  /// Append one evaluation record. `prologue` (may be null) is the delta
  /// of the batch's base rating, carried by the batch's first record.
  void record_eval(const std::string& base_key, const std::string& cfg_key,
                   const RatingDelta* prologue, const RatingDelta& delta);

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// What load() found besides the records: how much of the file is
  /// replayable and how much was rejected.
  struct LoadStats {
    /// Lines discarded as corrupt: the first damaged complete line plus
    /// everything after it. The eval chain is sequence-checked, so a
    /// record past a damaged one cannot be replayed even if it parses —
    /// the whole tail counts as lost.
    std::uint64_t corrupt_lines = 0;
    /// Byte offset just past the last replayable record. A resume that
    /// appends must truncate the file here first, or its new records
    /// would land after the corrupt tail and be lost on the next load.
    std::uint64_t good_bytes = 0;
    /// True when load() stopped before the end of the file (mid-file
    /// corruption; a partial trailing line alone does not set this).
    bool truncated = false;
  };

  /// Parse a journal back into segments. Unknown record types and a
  /// trailing partial line (the record being written when the process
  /// died) are skipped in either mode. A damaged *complete* line mid-file
  /// ends the replayable prefix: lenient mode (strict == false, the
  /// default) returns the records before it, counts the discarded tail in
  /// `stats` and the "journal.corrupt_lines" obs counter; strict mode
  /// throws JournalError instead, as does an unreadable file.
  static std::vector<JournalSegment> load(const std::string& path,
                                          bool strict = false,
                                          LoadStats* stats = nullptr);

private:
  void write_line(const std::string& line);

  std::string path_;
  std::ofstream out_;
};

}  // namespace peak::core
