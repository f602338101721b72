#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace peak::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return ss / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> tmp(xs.begin(), xs.end());
  const std::size_t mid = tmp.size() / 2;
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(mid),
                   tmp.end());
  if (tmp.size() % 2 == 1) return tmp[mid];
  const double hi = tmp[mid];
  const double lo =
      *std::max_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double mad(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double med = median(xs);
  std::vector<double> dev(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    dev[i] = std::fabs(xs[i] - med);
  return 1.4826 * median(dev);
}

double median_sorted(std::span<const double> sorted) {
  if (sorted.empty()) return 0.0;
  // A NaN sorts to the front (comparisons are all-false), an Inf to either
  // end; checking the two ends therefore guards the whole span in O(1).
  PEAK_CHECK(std::isfinite(sorted.front()) && std::isfinite(sorted.back()),
             "median_sorted: non-finite sample in window");
  const std::size_t mid = sorted.size() / 2;
  if (sorted.size() % 2 == 1) return sorted[mid];
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

namespace {

/// The k-th smallest (0-based) of the deviations from `med` over a sorted
/// span split at `split`: the left run yields med - sorted[split-1-i]
/// (ascending in i), the right run sorted[split+i] - med (ascending in
/// i). Binary search for how many of the k+1 smallest come from the left
/// run, O(log n). The result is one of the same doubles a merge of the two
/// runs would reach; ties between the runs do not change the value.
double kth_deviation(std::span<const double> sorted, std::size_t split,
                     double med, std::size_t k) {
  const std::size_t a = split;
  const std::size_t b = sorted.size() - split;
  auto left = [&](std::size_t i) { return med - sorted[split - 1 - i]; };
  auto right = [&](std::size_t j) { return sorted[split + j] - med; };
  // i from the left run, j = k + 1 - i from the right run.
  std::size_t lo = k + 1 > b ? k + 1 - b : 0;
  std::size_t hi = std::min(a, k + 1);
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;
    if (right(k - i) > left(i))
      lo = i + 1;  // the right run's last taken deviation is too large
    else
      hi = i;
  }
  const std::size_t i = lo;
  const std::size_t j = k + 1 - i;
  if (i == 0) return right(j - 1);
  if (j == 0) return left(i - 1);
  return std::max(left(i - 1), right(j - 1));
}

}  // namespace

double mad_sorted(std::span<const double> sorted) {
  if (sorted.empty()) return 0.0;
  PEAK_CHECK(std::isfinite(sorted.front()) && std::isfinite(sorted.back()),
             "mad_sorted: non-finite sample in window");
  const double med = median_sorted(sorted);
  const std::size_t n = sorted.size();
  // Deviations |x - med| of the left run (x <= med) grow toward index 0,
  // of the right run (x > med) toward index n-1; the middle order
  // statistics of their union are the MAD's median.
  const auto split = static_cast<std::size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), med) - sorted.begin());
  const std::size_t mid = n / 2;
  const double cur = kth_deviation(sorted, split, med, mid);
  if (n % 2 == 1) return 1.4826 * cur;
  const double prev = kth_deviation(sorted, split, med, mid - 1);
  return 1.4826 * (0.5 * (prev + cur));
}

double min(std::span<const double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> tmp(xs.begin(), xs.end());
  std::sort(tmp.begin(), tmp.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(tmp.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, tmp.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return tmp[lo] + frac * (tmp[hi] - tmp[lo]);
}

double Welford::stddev() const { return std::sqrt(variance()); }

void Welford::merge(const Welford& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
}

}  // namespace peak::stats
