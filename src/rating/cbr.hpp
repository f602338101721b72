#pragma once

/// \file cbr.hpp
/// Context-based rating (paper Section 2.2). Invocations are bucketed by
/// their context — the values of the context variables identified by the
/// Figure 1 analysis — and only same-context timings are averaged. Each
/// context is one unique workload; a version's rating under a context is
/// the mean execution time over a window of that context's invocations.
/// The winner may differ per context; the offline scenario uses the most
/// important context (the one carrying the most execution time), while an
/// adaptive scenario would keep all per-context winners.

#include <cstddef>
#include <map>
#include <vector>

#include "rating/window.hpp"

namespace peak::rating {

using ContextKey = std::vector<double>;

class ContextBasedRater {
public:
  explicit ContextBasedRater(WindowPolicy policy = {});

  /// Record one invocation: its context and measured time.
  void add(const ContextKey& context, double time);

  [[nodiscard]] std::size_t num_contexts() const { return buckets_.size(); }

  /// Total invocations recorded (all contexts).
  [[nodiscard]] std::size_t total_samples() const { return total_; }

  /// The most important context: the one with the largest accumulated
  /// execution time (ties broken by sample count).
  [[nodiscard]] const ContextKey& dominant_context() const;

  /// Rating of the version under the dominant context.
  [[nodiscard]] Rating rating() const;

  /// Rating under one specific context.
  [[nodiscard]] Rating rating_for(const ContextKey& context) const;

  /// All per-context ratings (for adaptive tuning / reports).
  [[nodiscard]] std::map<ContextKey, Rating> all_ratings() const;

  /// The dominant bucket's converged(): rating().converged without a
  /// pass over the window when the running sums can decide it.
  [[nodiscard]] bool converged() const;
  /// Exhausted: the dominant bucket hit the sample cap without converging
  /// — the consultant's cue to switch to MBR/RBR.
  [[nodiscard]] bool exhausted() const;

  void reset();

private:
  struct Bucket {
    WindowedRater rater;
    double total_time = 0.0;
  };

  WindowPolicy policy_;
  std::map<ContextKey, Bucket> buckets_;
  std::size_t total_ = 0;
};

}  // namespace peak::rating
