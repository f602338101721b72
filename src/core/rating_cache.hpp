#pragma once

/// \file rating_cache.hpp
/// Persistent content-addressed rating cache. Batched evaluation makes
/// every candidate rating a pure function of
/// (machine, section, trace, seed, rating method + params, base bits,
/// candidate bits) — the measurement stream is reseeded per rating from
/// exactly those inputs — so the complete outcome of a rating (the R
/// value plus every state delta it caused: memo entries, rating
/// observations, counter advances, simulated-cycle costs) can be keyed by
/// a digest of them and replayed from disk on any later run that asks the
/// same question. The file is append-only JSONL — one RatingDelta per
/// line, in the encoding the journal and the worker transports share
/// (core/rating_delta.hpp) — shared across rounds, sections,
/// and repeated runs; a warm rerun applies cached deltas instead of
/// simulating, which makes it near-instant while still producing a
/// bit-identical TuningOutcome (costs included — tuning cost is part of
/// the cached deltas, not of the wall clock).
///
/// The cache is disabled whenever a fault injector is installed: injector
/// verdicts depend on state that is not part of the key (attempt numbers,
/// quarantine history), so cached ratings would be unsound there.

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/rating_delta.hpp"

namespace peak::core {

/// Append-only on-disk cache, keyed by 128-bit content digests rendered
/// as 32 hex digits. Opening loads every complete record into memory
/// (damaged lines are skipped and counted in `search.cache.corrupt_lines`
/// — cache entries are position-independent, so unlike the journal a hole
/// costs only that entry); store() appends one line under an exclusive
/// flock(2), so concurrent writers — other processes, or another
/// RatingCache on the same path in this process — interleave whole lines,
/// never bytes. Thread-safe; in the driver all lookups and stores happen
/// on the batch-merge (primary) thread anyway.
class RatingCache {
public:
  /// Opens `path` for appending, creating it if absent, and loads any
  /// existing entries.
  explicit RatingCache(std::string path);
  ~RatingCache();

  RatingCache(const RatingCache&) = delete;
  RatingCache& operator=(const RatingCache&) = delete;

  /// Delta stored under `key`, if present. Bumps `search.cache.hit` /
  /// `.miss`.
  [[nodiscard]] std::optional<RatingDelta> lookup(
      const std::string& key) const;

  /// Insert and append to disk (first writer wins; a duplicate store of
  /// the same key keeps the existing entry). Bumps `search.cache.store`.
  void store(const std::string& key, const RatingDelta& delta);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, RatingDelta> entries_;
  /// POSIX fd (O_WRONLY | O_APPEND): flock() needs a file descriptor and
  /// O_APPEND makes each single write() land atomically at the current
  /// end of file — std::ofstream exposes neither guarantee.
  int fd_ = -1;
};

}  // namespace peak::core
