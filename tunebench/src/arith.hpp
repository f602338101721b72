#pragma once

/// \file arith.hpp
/// The benchmark's own arithmetic: order statistics, the tail-percentile
/// rule, the geometric mean, the failure share, and span self time and
/// coverage. Free of PEAK code so tests/selftest.cpp can check it on
/// fixed inputs.

#include <cstddef>
#include <vector>

namespace tunebench {

/// Median (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> values);

/// The highest whole percentile of a sample that still has at least
/// `min_beyond` samples above it. Percentile p sits at the nearest rank
/// k = ceil(p·n/100) (1-based) of the ascending sample, and `beyond` is
/// n − k. When even p = 1 leaves fewer than `min_beyond` samples beyond
/// it (n ≤ min_beyond), no percentile qualifies: `percentile` is 0 and
/// `value` is the sample maximum.
struct Tail {
  int percentile = 0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Tail tail_percentile(std::vector<double> values, std::size_t min_beyond = 10);

/// Geometric mean of positive ratios; 0 when empty.
double geomean(const std::vector<double>& ratios);

/// failed / attempted; 0 when nothing was attempted.
double failure_share(std::size_t failed, std::size_t attempted);

/// A span's extent on one clock, start <= end.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `children`, each clipped to `parent`.
double covered(const Interval& parent, std::vector<Interval> children);

/// The parent's duration minus the part of it its children cover.
double self_time(const Interval& parent, const std::vector<Interval>& children);

}  // namespace tunebench
