#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "stats/descriptive.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace peak::stats {
namespace {

TEST(Descriptive, MeanVarianceStddev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  const std::vector<double> one = {3.5};
  EXPECT_DOUBLE_EQ(mean(one), 3.5);
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Descriptive, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
}

TEST(Descriptive, MadEstimatesSigmaForNormalData) {
  support::Rng rng(5);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(mad(xs), 2.0, 0.1);
}

TEST(Descriptive, MadRobustToOutliers) {
  std::vector<double> xs(100, 1.0);
  for (int i = 0; i < 10; ++i) xs[static_cast<std::size_t>(i)] = 1000.0;
  EXPECT_LT(mad(xs), 1.0);  // unchanged by the 10% contamination
}

TEST(Descriptive, Percentile) {
  const std::vector<double> xs = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20.0);
}

TEST(Descriptive, MinMax) {
  const std::vector<double> xs = {3, -1, 7};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
}

TEST(Welford, MatchesBatchComputation) {
  support::Rng rng(6);
  std::vector<double> xs(500);
  Welford acc;
  for (double& x : xs) {
    x = rng.uniform(0.0, 100.0);
    acc.add(x);
  }
  EXPECT_NEAR(acc.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(acc.variance(), variance(xs), 1e-9);
  EXPECT_EQ(acc.count(), xs.size());
}

TEST(Welford, MergeEqualsSinglePass) {
  support::Rng rng(7);
  Welford all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 3.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.count(), all.count());
}

TEST(SortedVariants, MedianSortedMatchesMedian) {
  support::Rng rng(11);
  for (int n = 0; n <= 64; ++n) {
    std::vector<double> xs;
    for (int i = 0; i < n; ++i)
      xs.push_back(rng.uniform(0, 10));  // duplicates likely
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_DOUBLE_EQ(median_sorted(sorted), median(xs)) << "n=" << n;
  }
}

/// The O(n) merge walk mad_sorted() used before its binary search: the
/// oracle the O(log n) version must match bit for bit.
double mad_sorted_walk(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  const double med = median_sorted(sorted);
  const std::size_t n = sorted.size();
  std::size_t l = static_cast<std::size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), med) - sorted.begin());
  std::size_t r = l;
  const std::size_t mid = n / 2;
  double prev = 0.0;
  double cur = 0.0;
  for (std::size_t k = 0; k <= mid; ++k) {
    prev = cur;
    const double dl =
        l > 0 ? med - sorted[l - 1] : std::numeric_limits<double>::infinity();
    const double dr =
        r < n ? sorted[r] - med : std::numeric_limits<double>::infinity();
    if (dl <= dr) {
      cur = dl;
      --l;
    } else {
      cur = dr;
      ++r;
    }
  }
  return 1.4826 * (n % 2 == 1 ? cur : 0.5 * (prev + cur));
}

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(SortedVariants, MadSortedMatchesMad) {
  support::Rng rng(12);
  for (int n = 0; n <= 64; ++n) {
    std::vector<double> xs;
    for (int i = 0; i < n; ++i)
      xs.push_back(rng.lognormal(0.5) * (i % 5 == 0 ? 100.0 : 1.0));
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(bits(mad_sorted(sorted)), bits(mad(xs))) << "n=" << n;
    EXPECT_EQ(bits(mad_sorted(sorted)), bits(mad_sorted_walk(sorted)))
        << "n=" << n;
  }
}

/// Odd and even sizes, heavy duplicates (including runs equal to the
/// median on both sides of it), skewed runs and single-sided data.
TEST(SortedVariants, MadSortedMatchesWalkBitForBit) {
  support::Rng rng(13);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 97));
    const int levels = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      switch (trial % 4) {
        case 0:  // few distinct values: ties everywhere
          xs.push_back(0.1 * static_cast<double>(rng.uniform_int(0, levels)));
          break;
        case 1:  // a tight cluster plus a far tail on one side
          xs.push_back(rng.bernoulli(0.2) ? rng.uniform(50, 1e4)
                                          : rng.normal(10.0, 0.01));
          break;
        case 2:  // values that round differently around the median
          xs.push_back(1.0 + static_cast<double>(rng.uniform_int(0, 8)) *
                                 std::numeric_limits<double>::epsilon());
          break;
        default:
          xs.push_back(rng.lognormal(1.0));
      }
    }
    std::sort(xs.begin(), xs.end());
    ASSERT_EQ(bits(mad_sorted(xs)), bits(mad_sorted_walk(xs)))
        << "trial=" << trial << " n=" << n;
    ASSERT_EQ(bits(mad_sorted(xs)), bits(mad(xs)))
        << "trial=" << trial << " n=" << n;
  }
}

TEST(SortedVariants, MadSortedHandlesConstantData) {
  const std::vector<double> xs(9, 4.2);
  EXPECT_DOUBLE_EQ(mad_sorted(xs), 0.0);
  EXPECT_DOUBLE_EQ(median_sorted(xs), 4.2);
}

TEST(SortedVariants, NonFiniteSamplesAreRejectedLoudly) {
  // A NaN poisons order-statistics silently (std::sort's ordering becomes
  // meaningless); the sorted variants must refuse the window instead of
  // returning a garbage estimate. NaN sorts to an end under the library's
  // upper_bound insertion, so the O(1) front/back check suffices.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_nan = {nan, 1.0, 2.0};
  const std::vector<double> with_inf = {1.0, 2.0, inf};
  EXPECT_THROW(median_sorted(with_nan), support::CheckError);
  EXPECT_THROW(median_sorted(with_inf), support::CheckError);
  EXPECT_THROW(mad_sorted(with_nan), support::CheckError);
  EXPECT_THROW(mad_sorted(with_inf), support::CheckError);
}

TEST(Welford, MergeWithEmpty) {
  Welford a, b;
  a.add(1.0);
  a.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

}  // namespace
}  // namespace peak::stats
