#pragma once

/// \file rating_cache.hpp
/// Persistent content-addressed store of recorded ratings: the rating
/// cache and the crash-safe tuning journal. Batched evaluation makes
/// every member rating a pure function of the run (machine, section,
/// trace, seed, rating method + params, fault injector and guard) and
/// the member's MemberTask (base and candidate bits, stream seed, the
/// memo EVALs, quarantine entries and validation verdict it reads) — so
/// the complete outcome of a rating (the R value plus every state delta
/// it caused: memo entries, quarantine counts, fault events, rating
/// observations, counter advances, simulated-cycle costs) can be keyed
/// by a digest of them and replayed from disk on any later run that
/// asks the same question. The file is append-only JSONL — one
/// RatingDelta per line, in the encoding the worker transports share
/// (core/rating_delta.hpp). A hit is merged exactly like a live rating,
/// which keeps the TuningOutcome bit-identical (costs included — tuning
/// cost is part of the recorded deltas, not of the wall clock).
///
/// The driver opens two of them. The rating cache (`--rating-cache`) is
/// shared across rounds, sections and runs, and stores only live
/// ratings. The journal (`--journal`) records every delta the driver
/// merges — live, from the cache, or synthesized for a worker process
/// that never returned one — and `--resume` looks each member up there
/// before the cache, so a recorded rating merges and a missing one
/// measures. Neither stores a delta that abandons its rating with an
/// exception; a resume re-rates that member.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/rating_delta.hpp"
#include "support/check.hpp"

namespace peak::obs {
class Counter;
}  // namespace peak::obs

namespace peak::core {

/// A journal that cannot be resumed from: it cannot be read, or a strict
/// load met a damaged complete line. what() names the journal (and the
/// line).
class JournalError : public support::CheckError {
public:
  using support::CheckError::CheckError;
};

/// Names of the counters a store bumps. The defaults are the rating
/// cache's.
struct StoreCounters {
  std::string hit = "search.cache.hit";
  std::string miss = "search.cache.miss";
  std::string store = "search.cache.store";
  std::string corrupt = "search.cache.corrupt_lines";
};

/// The journal's counters: its hits are ratings a resume replayed.
inline const StoreCounters kJournalCounters{
    "journal.replayed", "journal.miss", "journal.store",
    "journal.corrupt_lines"};

/// Append-only on-disk store, keyed by 128-bit content digests rendered
/// as 32 hex digits. Opening loads every complete record into memory;
/// records are keyed, not sequenced, so a damaged line costs only
/// itself. store() appends one line under an exclusive flock(2), so
/// concurrent writers — other processes, or another RatingCache on the
/// same path in this process — interleave whole lines, never bytes.
/// Thread-safe; in the driver all lookups and stores happen on the
/// batch-merge (primary) thread anyway.
class RatingCache {
public:
  /// What every key of one run starts from: the fields the run's ratings
  /// depend on, mixed into two independent 64-bit chains salted with the
  /// key format version. key() extends a copy by one member's
  /// MemberTask, so a key is the run plus exactly what the member reads
  /// (128-bit keys make accidental collisions implausible at any
  /// realistic cache size).
  class Fingerprint {
  public:
    Fingerprint();
    void mix(std::uint64_t v);
    void mix_double(double d);
    void mix_string(std::string_view s);
    /// Key of one member's rating, as 32 hex digits.
    [[nodiscard]] std::string key(const MemberTask& task) const;
    /// The digest itself, as 32 hex digits.
    [[nodiscard]] std::string hex() const;

  private:
    std::uint64_t h1_;
    std::uint64_t h2_;
  };

  /// How the constructor reads what the file already holds. In every
  /// mode a trailing line without its '\n' (a writer killed mid-append)
  /// is skipped silently, and a damaged complete line (a garbage write, a
  /// flipped bit) is skipped and counted unless the mode is kStrict.
  enum class Load {
    kIfPresent,  ///< rating cache: a missing file is a cold cache
    kRequired,   ///< resumed journal: an unreadable file throws JournalError
    kStrict,     ///< as kRequired, and a damaged line throws JournalError
    kNone,       ///< journal of a fresh run: only appended to, so it
                 ///< keeps the keys it stored and not their deltas
  };

  /// Opens `path` for appending, creating it if absent, and loads any
  /// existing entries as `load` says.
  explicit RatingCache(std::string path, Load load = Load::kIfPresent,
                       const StoreCounters& counters = StoreCounters{});
  ~RatingCache();

  RatingCache(const RatingCache&) = delete;
  RatingCache& operator=(const RatingCache&) = delete;

  /// Delta stored under `key`, if present. Bumps the hit / miss counter.
  /// A Load::kNone store cannot be looked up.
  [[nodiscard]] std::optional<RatingDelta> lookup(
      const std::string& key) const;

  /// Insert and append to disk (first writer wins; a duplicate store of
  /// the same key keeps the existing entry). Bumps the store counter.
  void store(const std::string& key, const RatingDelta& delta);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
  bool keys_only_;  ///< Load::kNone: keys_, not entries_
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& stores_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, RatingDelta> entries_;
  std::unordered_set<std::string> keys_;  ///< first writer wins
  /// POSIX fd (O_RDWR | O_APPEND): flock() needs a file descriptor and
  /// O_APPEND makes each single write() land atomically at the current
  /// end of file — std::ofstream exposes neither guarantee.
  int fd_ = -1;
};

}  // namespace peak::core
