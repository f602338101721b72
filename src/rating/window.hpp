#pragma once

/// \file window.hpp
/// Windowed sample aggregation (paper Section 3): ratings are computed
/// over a window of TS invocations; measurement outliers are eliminated;
/// and because VAR shrinks as the window grows, the engine keeps
/// collecting until VAR falls below a threshold (convergence) or the
/// sample budget is exhausted (the consultant then switches to the next
/// applicable rating method).

#include <cstddef>
#include <vector>

#include "rating/rating.hpp"
#include "stats/outlier.hpp"

namespace peak::rating {

struct WindowPolicy {
  std::size_t min_samples = 10;   ///< smallest window worth evaluating
  std::size_t max_samples = 640;  ///< give up (switch methods) beyond this
  /// Convergence: coefficient of variation of the *mean* estimate,
  /// stddev/(sqrt(n)·mean), must fall below this.
  double cv_threshold = 0.005;
  /// MAD-based detection by default: at the small window sizes PEAK works
  /// with (w = 10), a perturbation spike inflates the mean and sigma it
  /// hides behind (masking); the median absolute deviation does not care.
  stats::OutlierPolicy outliers{stats::OutlierRule::kMad, 6.0, 0.25, 4};

  friend bool operator==(const WindowPolicy&,
                         const WindowPolicy&) = default;
};

/// The window keeps two views of its samples. rating() is the exact
/// computation the paper's EVAL/VAR definition asks for: the outlier
/// filter over the whole window, then mean and two-pass variance of the
/// kept samples. converged() asks the same question after every sample
/// without that pass: the MAD and no-filter rules keep the kept set's
/// index-order sum (so EVAL is exact) and shifted running sums with a
/// rounding bound on the two-pass variance. When the bound places the
/// statistic on one side of `cv_threshold` that is the verdict; otherwise
/// converged() falls back to rating(). Either way it returns exactly
/// rating().converged. The sigma rule's iterated filter has no running
/// form; its converged() is rating().converged.
class WindowedRater {
public:
  explicit WindowedRater(WindowPolicy policy = {});

  /// Insert one sample. Non-finite samples are rejected (dropped and
  /// counted, both here and on the `rating.nonfinite_dropped` obs
  /// counter); they still count toward exhaustion so a stream of garbage
  /// measurements exhausts the window instead of spinning forever.
  void add(double sample);

  /// Current (EVAL, VAR) over the outlier-filtered window. EVAL = mean,
  /// VAR = sample variance (paper Section 3, cases 1 and 3). Cached until
  /// the next add().
  [[nodiscard]] Rating rating() const;

  /// rating().converged, decided from the running state when it can be.
  [[nodiscard]] bool converged() const;
  [[nodiscard]] bool exhausted() const {
    return samples_.size() + nonfinite_dropped_ >= policy_.max_samples;
  }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] std::size_t outliers_dropped() const;
  [[nodiscard]] std::size_t nonfinite_dropped() const {
    return nonfinite_dropped_;
  }
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }
  void reset();

private:
  void recompute() const;
  /// The verdict the exact computation reaches from VAR over n kept
  /// samples with mean `eval`: stddev(mean) / |eval| < cv_threshold.
  [[nodiscard]] bool cv_below(double var, std::size_t n, double eval) const;
  /// Update the kept set's running sums for the sample just appended.
  void track_kept(double sample);
  /// Rebuild the running sums over the kept set, in index order, with
  /// the MAD filter at (med, limit) and the drop quota `max_drop`; a
  /// negative limit keeps every sample.
  void rebuild_kept(double med, double limit, std::size_t max_drop);

  WindowPolicy policy_;
  std::vector<double> samples_;
  std::size_t nonfinite_dropped_ = 0;
  /// Ascending mirror of samples_, maintained incrementally so the MAD
  /// filter's median, MAD and outlier ranges are binary searches.
  std::vector<double> sorted_;

  // Running state of the kept set (MAD and no-filter rules). Outliers
  // are the samples below / above the MAD limits, counted by value; while
  // those counts stay put for the samples already in the window and the
  // drop quota does not bind, every earlier sample keeps its verdict and
  // the sums grow by the new sample alone.
  std::size_t low_outliers_ = 0;
  std::size_t high_outliers_ = 0;
  bool quota_binds_ = false;
  std::size_t kept_n_ = 0;
  double kept_sum_ = 0.0;  ///< index-order sum, as stats::mean adds
  double shift_ = 0.0;     ///< reference value of the shifted sums
  double shifted_sum_ = 0.0;
  double shifted_sq_ = 0.0;

  mutable std::vector<double> kept_scratch_;
  mutable Rating cached_;
  mutable std::size_t cached_dropped_ = 0;
  mutable bool cache_valid_ = false;
};

}  // namespace peak::rating
