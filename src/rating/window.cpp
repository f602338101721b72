#include "rating/window.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "stats/descriptive.hpp"
#include "support/check.hpp"

namespace peak::rating {

const char* to_string(Method m) {
  switch (m) {
    case Method::kCBR: return "CBR";
    case Method::kMBR: return "MBR";
    case Method::kRBR: return "RBR";
    case Method::kAVG: return "AVG";
    case Method::kWHL: return "WHL";
  }
  return "?";
}

std::optional<Method> parse_method(std::string_view name) {
  for (Method m : {Method::kCBR, Method::kMBR, Method::kRBR, Method::kAVG,
                   Method::kWHL})
    if (name == to_string(m)) return m;
  return std::nullopt;
}

WindowedRater::WindowedRater(WindowPolicy policy)
    : policy_(policy) {}

void WindowedRater::add(double sample) {
  // A non-finite sample (glitched timer, faulted run) must never enter
  // the window: one NaN makes mean/variance NaN forever, and an Inf
  // defeats the MAD filter's median arithmetic. Drop it — the stream
  // simply yields the next invocation — and count the drop so fault
  // sweeps can assert contamination stayed out of the ratings.
  if (!std::isfinite(sample)) {
    static obs::Counter& nonfinite_dropped =
        obs::counter("rating.nonfinite_dropped");
    nonfinite_dropped.inc();
    ++nonfinite_dropped_;
    return;
  }
  static obs::Counter& samples_added = obs::counter("window.samples");
  samples_added.inc();
  samples_.push_back(sample);
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), sample),
                 sample);
  cache_valid_ = false;
  if (policy_.outliers.rule != stats::OutlierRule::kSigma) track_kept(sample);
}

void WindowedRater::reset() {
  samples_.clear();
  sorted_.clear();
  nonfinite_dropped_ = 0;
  low_outliers_ = high_outliers_ = 0;
  quota_binds_ = false;
  kept_n_ = 0;
  kept_sum_ = shift_ = shifted_sum_ = shifted_sq_ = 0.0;
  cache_valid_ = false;
}

/// The MAD filter's outliers are the samples farther than `limit` from
/// the median, i.e. a prefix (med - x > limit) and a suffix (x - med >
/// limit) of the sorted mirror — two binary searches. The same doubles
/// decide it as in recompute(): |x - med| is med - x below the median and
/// x - med above it, exactly, under round-to-nearest.
void WindowedRater::track_kept(double sample) {
  const stats::OutlierPolicy& policy = policy_.outliers;
  const std::size_t n = samples_.size();
  double med = 0.0;
  double limit = -1.0;  // negative: no filtering
  std::size_t low = 0;
  std::size_t high = 0;
  bool sample_low = false;
  bool sample_high = false;
  if (policy.rule == stats::OutlierRule::kMad && n >= 3) {
    PEAK_CHECK(policy.k > 0.0, "outlier threshold must be positive");
    med = stats::median_sorted(sorted_);
    const double spread = stats::mad_sorted(sorted_);
    if (spread != 0.0) {
      limit = policy.k * spread;
      low = static_cast<std::size_t>(
          std::partition_point(sorted_.begin(), sorted_.end(),
                               [&](double x) { return med - x > limit; }) -
          sorted_.begin());
      high = static_cast<std::size_t>(
          sorted_.end() -
          std::partition_point(sorted_.begin(), sorted_.end(),
                               [&](double x) { return !(x - med > limit); }));
      sample_low = med - sample > limit;
      sample_high = sample - med > limit;
    }
  }
  const auto max_drop = static_cast<std::size_t>(
      policy.max_drop_fraction * static_cast<double>(n));
  const bool binds = low + high > max_drop;
  // The earlier samples keep their verdicts when the quota binds neither
  // before nor now and as many of them lie beyond each limit as before.
  const bool unchanged = !binds && !quota_binds_ &&
                         low - sample_low == low_outliers_ &&
                         high - sample_high == high_outliers_;
  low_outliers_ = low;
  high_outliers_ = high;
  quota_binds_ = binds;
  if (!unchanged) {
    rebuild_kept(med, limit, max_drop);
    return;
  }
  if (sample_low || sample_high) return;  // dropped
  if (kept_n_ == 0) shift_ = sample;
  ++kept_n_;
  kept_sum_ += sample;
  const double y = sample - shift_;
  shifted_sum_ += y;
  shifted_sq_ += y * y;
}

/// A negative `limit` means no filtering (keep everything).
void WindowedRater::rebuild_kept(double med, double limit,
                                 std::size_t max_drop) {
  kept_scratch_.clear();
  std::size_t dropped = 0;
  bool quota_hit = false;
  for (const double x : samples_) {
    if (limit >= 0.0 && !quota_hit && std::fabs(x - med) > limit) {
      if (dropped >= max_drop)
        quota_hit = true;
      else {
        ++dropped;
        continue;
      }
    }
    kept_scratch_.push_back(x);
  }
  kept_n_ = kept_scratch_.size();
  kept_sum_ = 0.0;
  for (const double x : kept_scratch_) kept_sum_ += x;
  shift_ = kept_n_ > 0 ? kept_sum_ / static_cast<double>(kept_n_) : 0.0;
  shifted_sum_ = shifted_sq_ = 0.0;
  for (const double x : kept_scratch_) {
    const double y = x - shift_;
    shifted_sum_ += y;
    shifted_sq_ += y * y;
  }
}

bool WindowedRater::cv_below(double var, std::size_t n, double eval) const {
  const double sem = std::sqrt(var / static_cast<double>(n));
  return sem / std::fabs(eval) < policy_.cv_threshold;
}

/// The exact verdict is cv_below(T / (n-1)) with T the two-pass sum of
/// squares about the mean, and cv_below is monotone in T (each step is a
/// correctly rounded division by a positive constant or a square root).
/// So an interval [T_lo, T_hi] around T decides whenever both ends give
/// the same verdict. EVAL itself is exact: kept_sum_ is the sum
/// stats::mean forms. The interval comes from the shifted sums
/// S1 = Σ(x - c), S2 = Σ(x - c)², c = shift_, a = EVAL - c:
///   Σ(x - EVAL)² = S2 - 2·a·S1 + n·a²,
/// with the rounding of S1, S2, a and the expression bounded by
/// 2(n+6)·u·M, M = S2 + 2|a·S1| + n·a² (taken twice over), the rounding of
/// x - c by u·sqrt(S2) in the norm, and the two-pass computation's own
/// rounding by a relative (n+2)·u (also taken twice). With c near the
/// mean M is a small multiple of T, so the interval's relative width is a
/// few thousand ulps and only a statistic within that of the threshold
/// falls back to rating().
bool WindowedRater::converged() const {
  if (cache_valid_) return cached_.converged;
  if (policy_.outliers.rule == stats::OutlierRule::kSigma)
    return rating().converged;
  const std::size_t n = kept_n_;
  if (n == 0 || n < policy_.min_samples) return false;
  const auto nd = static_cast<double>(n);
  const double eval = kept_sum_ / nd;
  if (eval == 0.0) return false;
  if (n < 2) return cv_below(0.0, n, eval);

  constexpr double u = std::numeric_limits<double>::epsilon() / 2.0;
  const double a = eval - shift_;
  const double t = shifted_sq_ - 2.0 * a * shifted_sum_ + nd * a * a;
  const double mag =
      shifted_sq_ + 2.0 * std::fabs(a * shifted_sum_) + nd * a * a;
  const double err = 4.0 * (nd + 8.0) * u * mag;
  const double shift_err = 2.0 * u * std::sqrt(shifted_sq_) * (1.0 + nd * u);
  const double norm_lo =
      std::max(0.0, std::sqrt(std::max(0.0, t - err)) - shift_err);
  const double norm_hi = std::sqrt(std::max(0.0, t + err)) + shift_err;
  const double pass = 2.0 * (nd + 3.0) * u;
  const double t_lo = norm_lo * norm_lo * (1.0 - pass);
  const double t_hi = norm_hi * norm_hi * (1.0 + pass);
  if (std::isfinite(t_hi)) {
    const auto dof = static_cast<double>(n - 1);
    if (cv_below(t_hi / dof, n, eval)) return true;
    if (!cv_below(t_lo / dof, n, eval)) return false;
  }
  return rating().converged;
}

std::size_t WindowedRater::outliers_dropped() const {
  if (!cache_valid_) recompute();
  return cached_dropped_;
}

/// Rebuild the cached rating. For the default MAD policy the filter is
/// replicated here against the sorted mirror — same kept set and dropped
/// count as stats::filter_outliers (covered by RatingMatchesFilterOutliers
/// in tests/test_rating_window.cpp), without the three median selections
/// and two temporary vectors per call. Other rules fall back to the
/// generic filter.
void WindowedRater::recompute() const {
  Rating r;
  r.samples = samples_.size();
  cached_dropped_ = 0;
  if (samples_.empty()) {
    cached_ = r;
    cache_valid_ = true;
    return;
  }

  kept_scratch_.clear();
  const stats::OutlierPolicy& policy = policy_.outliers;
  if (policy.rule == stats::OutlierRule::kMad) {
    PEAK_CHECK(policy.k > 0.0, "outlier threshold must be positive");
    const double med = stats::median_sorted(sorted_);
    const double spread =
        samples_.size() < 3 ? 0.0 : stats::mad_sorted(sorted_);
    if (spread == 0.0) {
      kept_scratch_ = samples_;
    } else {
      const auto max_drop = static_cast<std::size_t>(
          policy.max_drop_fraction * static_cast<double>(samples_.size()));
      // Mirror of stats::mad_mask: drop in index order until the quota is
      // hit, then keep everything from the first over-quota outlier on.
      bool quota_hit = false;
      for (const double x : samples_) {
        if (!quota_hit && std::fabs(x - med) > policy.k * spread) {
          if (cached_dropped_ >= max_drop)
            quota_hit = true;
          else {
            ++cached_dropped_;
            continue;
          }
        }
        kept_scratch_.push_back(x);
      }
    }
  } else {
    const stats::OutlierResult filtered =
        stats::filter_outliers(samples_, policy);
    kept_scratch_ = filtered.kept;
    cached_dropped_ = filtered.dropped;
  }

  r.eval = stats::mean(kept_scratch_);
  r.var = stats::variance(kept_scratch_);
  if (kept_scratch_.size() >= policy_.min_samples && r.eval != 0.0)
    r.converged = cv_below(r.var, kept_scratch_.size(), r.eval);
  cached_ = r;
  cache_valid_ = true;
}

Rating WindowedRater::rating() const {
  if (!cache_valid_) recompute();
  return cached_;
}

}  // namespace peak::rating
