#pragma once

/// \file mbr.hpp
/// Model-based rating (paper Section 2.3). The execution time of a tuning
/// section is modelled as T_TS = Σ T_i · C_i over the components derived
/// by the component analysis (the last component is the constant one,
/// C_n = 1). During tuning the rater collects the invocation-time vector
/// Y and the component-count matrix C, then solves the linear regression
/// Y = T·C for the component-time vector T of the version under test.
///
/// EVAL is either the dominant component's T_i (when the profile shows one
/// component carrying ≥ `dominant_share` of the time) or the estimate
/// T_avg = Σ T_i · C_avg_i (Eq. 4). VAR is the ratio of the residual sum
/// of squares to the total sum of squares of the TS execution times.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rating/rating.hpp"
#include "stats/regression.hpp"

namespace peak::rating {

struct MbrPolicy {
  std::size_t min_samples_per_component = 8;  ///< regression needs slack
  std::size_t max_samples = 640;
  double var_threshold = 0.02;  ///< VAR = SSres/SStot reporting bound
  /// Convergence: relative standard error of EVAL (the fitted functional
  /// of T) must drop below this. Unlike VAR, this always shrinks with the
  /// window, so sections whose count variation is small (e.g. a single
  /// context, where MBR degenerates to CBR/AVG) still converge.
  double cv_threshold = 0.005;
  /// A component is "dominant" when the profile attributes at least this
  /// share of execution time to it.
  double dominant_share = 0.90;

  friend bool operator==(const MbrPolicy&, const MbrPolicy&) = default;
};

/// Profile-derived constants for one tuning section (from the training
/// run): average component counts and, when one exists, the dominant
/// component's index.
struct MbrProfile {
  std::vector<double> c_avg;  ///< average counts, constant column included
  std::optional<std::size_t> dominant_component;
};

/// rating() fits the window exactly (Householder QR with the
/// non-negativity clamp, then the standard error of EVAL). converged()
/// answers the same question after every sample without a fit: the rater
/// accumulates XᵀX (bit-identical to Matrix::gram), Xᵀy and yᵀy row by
/// row, solves the normal equations, and bounds how far the QR fit's
/// coefficients, EVAL and residual can lie from that solution. When the
/// bounds place the verdict and every coefficient is positive by more
/// than its bound (so the clamp cannot act), that is the verdict;
/// otherwise converged() falls back to rating(). Either way it returns
/// exactly rating().converged.
class ModelBasedRater {
public:
  ModelBasedRater(std::size_t num_components, MbrProfile profile,
                  MbrPolicy policy = {});

  /// Record one invocation: its component-count row (length
  /// num_components, constant column last = 1) and measured time.
  void add(const std::vector<double>& counts, double time);

  /// Record one invocation from its instrumentation counters (length
  /// num_components - 1); the constant component's 1 is appended.
  void add_counters(std::span<const std::uint64_t> counters, double time);

  [[nodiscard]] Rating rating() const;

  /// The fitted component-time vector T (empty before enough samples).
  [[nodiscard]] std::vector<double> component_times() const;

  [[nodiscard]] std::size_t size() const { return times_.size(); }
  /// rating().converged, decided from the running sums when it can be.
  [[nodiscard]] bool converged() const;
  [[nodiscard]] bool exhausted() const {
    return times_.size() >= policy_.max_samples;
  }
  void reset();

private:
  /// Fold the row just appended to rows_ into the running sums.
  void commit_row(double time);
  [[nodiscard]] std::size_t min_rows() const;
  [[nodiscard]] stats::Matrix design() const;
  [[nodiscard]] std::vector<double> weights() const;
  [[nodiscard]] stats::RegressionResult fit() const;
  /// The verdict from the running sums, or nullopt when the rounding
  /// bounds cannot place it.
  [[nodiscard]] std::optional<bool> running_verdict() const;

  std::size_t num_components_;
  MbrProfile profile_;
  MbrPolicy policy_;
  std::vector<double> rows_;  ///< count rows, row-major, one per time
  std::vector<double> times_;
  stats::Matrix gram_;        ///< XᵀX
  std::vector<double> xty_;   ///< Xᵀy
  double yty_ = 0.0;          ///< yᵀy
  bool nonfinite_ = false;    ///< a non-finite count or time was added
};

}  // namespace peak::rating
