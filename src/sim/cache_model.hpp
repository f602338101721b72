#pragma once

/// \file cache_model.hpp
/// Cache effects for RBR. Two tools:
///
/// 1. SetAssocCache — a faithful set-associative LRU cache simulator,
///    used by tests and micro-benchmarks to validate the warm-up
///    assumptions the improved RBR method relies on.
///
/// 2. WarmthModel — the cheap surrogate the execution backend uses: a
///    per-tuning-section warmth score in [0,1]. The first execution after
///    new input data is cold; re-executions of the same data are warm.
///    This reproduces the bias the basic RBR method suffers (Version 1
///    preconditions the cache for Version 2) and that the improved method
///    removes with a precondition run plus order swapping (Section 2.4.2).

#include <cstdint>
#include <vector>

namespace peak::sim {

class SetAssocCache {
public:
  SetAssocCache(std::size_t size_bytes, std::size_t line_bytes,
                std::size_t associativity);

  /// Access one byte address; returns true on hit. LRU replacement.
  bool access(std::uint64_t address);

  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t num_sets() const { return sets_; }

private:
  struct Line {
    std::uint64_t tag = ~0ULL;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_bytes_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Scalar cache-warmth surrogate for the execution backend.
class WarmthModel {
public:
  /// \param cold_penalty extra time fraction when fully cold (e.g. 0.25 =
  ///   a cold run is 25% slower than a warm one).
  /// \param warmup_rate fraction of remaining coldness removed per run.
  explicit WarmthModel(double cold_penalty = 0.25, double warmup_rate = 0.9)
      : cold_penalty_(cold_penalty), warmup_rate_(warmup_rate) {}

  /// New input data arrived (trace advanced to a fresh invocation).
  void on_new_data() { warmth_ = 0.0; }

  /// Restoring saved input touches the working set: partially warm.
  void on_restore() { warmth_ = std::max(warmth_, restore_warmth_); }

  /// Time multiplier for the next execution, then warm up.
  double execute() {
    const double mult = 1.0 + cold_penalty_ * (1.0 - warmth_);
    warmth_ += warmup_rate_ * (1.0 - warmth_);
    return mult;
  }

  /// Multiplier of an execution on entirely fresh data (what a production
  /// invocation pays).
  [[nodiscard]] double fresh_multiplier() const {
    return 1.0 + cold_penalty_;
  }

  /// Set the warmth verbatim (0.0 = cold; a fresh measurement stream).
  void set_warmth(double warmth) { warmth_ = warmth; }

private:
  double cold_penalty_;
  double warmup_rate_;
  double restore_warmth_ = 0.8;  ///< restore streams the data through cache
  double warmth_ = 0.0;
};

}  // namespace peak::sim
