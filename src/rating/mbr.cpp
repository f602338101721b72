#include "rating/mbr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace peak::rating {

ModelBasedRater::ModelBasedRater(std::size_t num_components,
                                 MbrProfile profile, MbrPolicy policy)
    : num_components_(num_components),
      profile_(std::move(profile)),
      policy_(policy),
      gram_(num_components, num_components),
      xty_(num_components, 0.0) {
  PEAK_CHECK(num_components_ >= 1, "model needs at least one component");
  PEAK_CHECK(profile_.c_avg.empty() ||
                 profile_.c_avg.size() == num_components_,
             "C_avg arity must match the component count");
  if (profile_.dominant_component)
    PEAK_CHECK(*profile_.dominant_component < num_components_,
               "dominant component out of range");
}

void ModelBasedRater::add(const std::vector<double>& counts, double time) {
  PEAK_CHECK(counts.size() == num_components_,
             "count row arity mismatch");
  rows_.insert(rows_.end(), counts.begin(), counts.end());
  commit_row(time);
}

void ModelBasedRater::add_counters(std::span<const std::uint64_t> counters,
                                   double time) {
  PEAK_CHECK(counters.size() + 1 == num_components_,
             "counter arity mismatch");
  for (const std::uint64_t c : counters)
    rows_.push_back(static_cast<double>(c));
  rows_.push_back(1.0);  // constant component
  commit_row(time);
}

/// Entry (i, j) of XᵀX receives the rows' products in row order starting
/// from 0.0 — the very additions Matrix::gram makes — so gram_ equals
/// design().gram() bit for bit.
void ModelBasedRater::commit_row(double time) {
  static obs::Counter& samples = obs::counter("mbr.samples");
  samples.inc();
  const std::size_t p = num_components_;
  const double* row = rows_.data() + times_.size() * p;
  times_.push_back(time);
  if (!std::isfinite(time)) nonfinite_ = true;
  for (std::size_t i = 0; i < p; ++i) {
    if (!std::isfinite(row[i])) nonfinite_ = true;
    for (std::size_t j = i; j < p; ++j) {
      gram_(i, j) += row[i] * row[j];
      gram_(j, i) = gram_(i, j);
    }
    xty_[i] += row[i] * time;
  }
  yty_ += time * time;
}

std::size_t ModelBasedRater::min_rows() const {
  return std::max<std::size_t>(
      policy_.min_samples_per_component * num_components_,
      num_components_ + 1);
}

stats::Matrix ModelBasedRater::design() const {
  stats::Matrix d(times_.size(), num_components_);
  for (std::size_t r = 0; r < times_.size(); ++r)
    for (std::size_t c = 0; c < num_components_; ++c)
      d(r, c) = rows_[r * num_components_ + c];
  return d;
}

/// EVAL is a linear functional cᵀT of the fitted component times.
std::vector<double> ModelBasedRater::weights() const {
  std::vector<double> w(num_components_, 0.0);
  if (profile_.dominant_component) {
    w[*profile_.dominant_component] = 1.0;
  } else if (!profile_.c_avg.empty()) {
    w = profile_.c_avg;  // T_avg = Σ T_i · C_avg_i (Eq. 4)
  } else {
    // No profile at all: mean observed count row.
    const auto m = static_cast<double>(times_.size());
    for (std::size_t r = 0; r < times_.size(); ++r)
      for (std::size_t i = 0; i < num_components_; ++i)
        w[i] += rows_[r * num_components_ + i] / m;
  }
  return w;
}

stats::RegressionResult ModelBasedRater::fit() const {
  static obs::Counter& fits = obs::counter("mbr.fits");
  fits.inc();
  return stats::least_squares_nonneg(design(), times_);
}

std::vector<double> ModelBasedRater::component_times() const {
  if (times_.size() < num_components_ + 1) return {};
  return fit().coefficients;
}

Rating ModelBasedRater::rating() const {
  Rating r;
  r.samples = times_.size();
  if (times_.size() < min_rows()) return r;

  const stats::RegressionResult fit_result = fit();
  if (!fit_result.ok) return r;

  const std::vector<double> w = weights();
  double eval = 0.0;
  for (std::size_t i = 0; i < num_components_; ++i)
    eval += fit_result.coefficients[i] * w[i];
  r.eval = eval;
  r.var = fit_result.var_ratio();

  // Convergence by the standard error of EVAL.
  const std::optional<stats::Matrix> ginv = stats::invert_gram(gram_);
  const double se = ginv ? stats::functional_std_error(
                               *ginv, times_.size(), fit_result.ss_residual, w)
                         : -1.0;
  r.converged =
      se >= 0.0 && eval > 0.0 && se / eval < policy_.cv_threshold;
  return r;
}

bool ModelBasedRater::converged() const {
  if (const std::optional<bool> verdict = running_verdict()) return *verdict;
  return rating().converged;
}

/// rating() decides converged = se >= 0 && eval > 0 && se/eval < cv, with
/// se = sqrt(SSres/(m-p) · wᵀG⁻¹w). G⁻¹ here is the exact one (gram_ is
/// bit-identical, and so is its inverse), se is monotone in SSres and
/// se/eval in eval, so intervals around the QR fit's SSres and EVAL
/// decide whenever both ends agree.
///
/// The intervals come from the normal-equation solution β = G⁻¹Xᵀy. In
/// the column-scaled system (D = diag(sqrt(G_jj)), H = D·G⁻¹·D), the QR
/// fit is backward stable (Higham, Thm. 20.3: the exact fit of data
/// perturbed by c·m·p·u per column) and the normal equations carry the
/// accumulation error of G, Xᵀy and the inverse's residual θ, so to first
/// order |D(β_qr - β)|_j ≤ rowsum_j|H| · ε·(‖y‖ + ‖Dβ‖₁) + θ-terms with
/// ε = 32·(m+8)(p+2)·u, and everything is doubled for second-order terms.
/// The fast path runs only where those are negligible: κ·ε ≤ 1e-6 for the
/// scaled condition κ = ‖D⁻¹GD⁻¹‖·‖H‖, and every column's R_kk bound far
/// above QR's 1e-10 rank cut-off. The residual is yᵀy - 2βᵀXᵀy + βᵀGβ,
/// which cancels on well-fitted data: then the interval is too wide and
/// the exact fit decides.
std::optional<bool> ModelBasedRater::running_verdict() const {
  const std::size_t m = times_.size();
  const std::size_t p = num_components_;
  if (m < min_rows()) return false;
  if (nonfinite_) return false;  // least_squares refuses the window
  const std::optional<stats::Matrix> ginv = stats::invert_gram(gram_);
  if (!ginv) return false;  // rating()'s standard error is then -1
  const stats::Matrix& gi = *ginv;

  constexpr double u = std::numeric_limits<double>::epsilon() / 2.0;
  const auto md = static_cast<double>(m);
  const auto pd = static_cast<double>(p);
  const double eps = (md + 8.0) * (pd + 2.0) * u;

  std::vector<double> s(p);
  double s_max = 0.0;
  for (std::size_t j = 0; j < p; ++j) {
    s[j] = std::sqrt(gram_(j, j));
    if (!(s[j] > 0.0)) return std::nullopt;
    s_max = std::max(s_max, s[j]);
  }
  // Row sums of |H| and |D⁻¹GD⁻¹|, and θ = ‖D⁻¹(I - G·G⁻¹)D‖∞.
  std::vector<double> h_rows(p, 0.0);
  double h_norm = 0.0;
  double g_norm = 0.0;
  double theta = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    double g_row = 0.0;
    double resid_row = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      h_rows[i] += std::fabs(s[i] * gi(i, j) * s[j]);
      g_row += std::fabs(gram_(i, j) / (s[i] * s[j]));
      double gg = 0.0;
      for (std::size_t k = 0; k < p; ++k) gg += gram_(i, k) * gi(k, j);
      resid_row += std::fabs((i == j ? 1.0 : 0.0) - gg) * s[j] / s[i];
    }
    h_norm = std::max(h_norm, h_rows[i]);
    g_norm = std::max(g_norm, g_row);
    theta = std::max(theta, resid_row);
  }
  if (!(32.0 * g_norm * h_norm * eps + 4.0 * theta <= 1e-6))
    return std::nullopt;
  // |R_kk| >= s_k / sqrt(‖H‖) against max |R_jj| <= max s_j.
  for (std::size_t k = 0; k < p; ++k)
    if (!(s[k] >= 1e-6 * s_max * std::sqrt(h_norm))) return std::nullopt;

  std::vector<double> beta(p, 0.0);
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j < p; ++j) beta[i] += gi(i, j) * xty_[j];
  const double y_norm = std::sqrt(yty_) * (1.0 + eps);
  double scaled_beta = 0.0;
  for (std::size_t j = 0; j < p; ++j) scaled_beta += s[j] * std::fabs(beta[j]);
  const double z = y_norm + scaled_beta;

  // err[j] bounds s_j·|β_qr_j - β_j| (and s_j·|β_j - β*_j| for the exact
  // solution β*). A coefficient not positive by more than its bound could
  // be clamped by least_squares_nonneg.
  std::vector<double> err(p);
  double err_sq = 0.0;
  for (std::size_t j = 0; j < p; ++j) {
    err[j] = 2.0 * (32.0 * eps * z * h_rows[j] + 2.0 * theta * h_norm * y_norm);
    if (!(s[j] * beta[j] > err[j])) return std::nullopt;
    err_sq += err[j] * err[j];
  }

  const std::vector<double> w = weights();
  double eval = 0.0;
  double eval_mag = 0.0;
  double eval_err = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    eval += beta[i] * w[i];
    eval_mag += std::fabs(beta[i] * w[i]);
    eval_err += std::fabs(w[i]) / s[i] * err[i];
  }
  eval_err += 4.0 * (pd + 2.0) * u * eval_mag;

  // ‖y - Xβ‖² from the running sums, within 8ε·z² of its exact value; the
  // exact residual lies below it by at most ‖X(β - β*)‖² ≤ ‖D⁻¹GD⁻¹‖·‖err‖²,
  // and the QR fit's residual above the exact one by as much. Its own
  // rounding: the fitted values (4(p+2)u·z in norm) and the sum of squares
  // (a relative 2(m+4)u).
  double bty = 0.0;
  double bgb = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    bty += beta[i] * xty_[i];
    double gb = 0.0;
    for (std::size_t j = 0; j < p; ++j) gb += gram_(i, j) * beta[j];
    bgb += beta[i] * gb;
  }
  const double phi = yty_ - 2.0 * bty + bgb;
  const double phi_err = 8.0 * eps * z * z;
  const double gap_sq = g_norm * err_sq;
  const double fitted_err = 4.0 * (pd + 2.0) * u * z;
  const double pass = 2.0 * (md + 4.0) * u;
  const double lo_norm =
      std::max(0.0, std::sqrt(std::max(0.0, phi - phi_err - gap_sq)) -
                        fitted_err);
  const double hi_norm =
      std::sqrt(std::max(0.0, phi + phi_err + gap_sq)) + fitted_err;
  const double ss_lo = lo_norm * lo_norm * (1.0 - pass);
  const double ss_hi = hi_norm * hi_norm * (1.0 + pass);
  const double eval_lo = eval - eval_err;
  const double eval_hi = eval + eval_err;
  if (!std::isfinite(ss_hi) || !std::isfinite(eval_hi)) return std::nullopt;

  if (eval_hi <= 0.0) return false;
  const double se_lo = stats::functional_std_error(gi, m, ss_lo, w);
  if (se_lo < 0.0) return false;  // wᵀG⁻¹w < 0: se is -1 for any fit
  if (eval_lo > 0.0 &&
      stats::functional_std_error(gi, m, ss_hi, w) / eval_lo <
          policy_.cv_threshold)
    return true;
  if (se_lo / eval_hi >= policy_.cv_threshold) return false;
  return std::nullopt;
}

void ModelBasedRater::reset() {
  rows_.clear();
  times_.clear();
  gram_ = stats::Matrix(num_components_, num_components_);
  std::fill(xty_.begin(), xty_.end(), 0.0);
  yty_ = 0.0;
  nonfinite_ = false;
}

}  // namespace peak::rating
