#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rating/baselines.hpp"
#include "rating/cbr.hpp"
#include "rating/window.hpp"
#include "stats/descriptive.hpp"
#include "stats/outlier.hpp"
#include "support/rng.hpp"

namespace peak::rating {
namespace {

TEST(WindowedRater, EvalVarOverWindow) {
  WindowedRater rater;
  for (double x : {10.0, 11.0, 9.0, 10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9})
    rater.add(x);
  const Rating r = rater.rating();
  EXPECT_EQ(r.samples, 10u);
  EXPECT_NEAR(r.eval, 10.0, 0.1);
  EXPECT_GT(r.var, 0.0);
}

TEST(WindowedRater, ConvergesAsWindowGrows) {
  support::Rng rng(1);
  WindowPolicy policy;
  policy.cv_threshold = 0.01;
  WindowedRater rater(policy);
  int added = 0;
  while (!rater.converged() && added < 10000) {
    rater.add(rng.normal(100.0, 5.0));
    ++added;
  }
  EXPECT_TRUE(rater.converged());
  // sem = 5/sqrt(n) < 1.0 → n ≈ 25; allow generous slack.
  EXPECT_LT(added, 400);
  EXPECT_GE(added, 10);
}

TEST(WindowedRater, OutlierEliminationStabilizesEval) {
  support::Rng rng(2);
  WindowPolicy with, without;
  without.outliers.rule = stats::OutlierRule::kNone;
  WindowedRater filtered(with), raw(without);
  for (int i = 0; i < 200; ++i) {
    double t = rng.normal(100.0, 1.0);
    if (i % 25 == 7) t *= 4.0;  // interrupt
    filtered.add(t);
    raw.add(t);
  }
  EXPECT_NEAR(filtered.rating().eval, 100.0, 0.5);
  EXPECT_GT(raw.rating().eval, 101.0);  // dragged by spikes
  EXPECT_GT(filtered.outliers_dropped(), 0u);
}

TEST(WindowedRater, ExhaustedAtMaxSamples) {
  WindowPolicy policy;
  policy.max_samples = 16;
  policy.cv_threshold = 1e-9;  // unreachable
  WindowedRater rater(policy);
  support::Rng rng(3);
  for (int i = 0; i < 16; ++i) rater.add(rng.normal(10, 1));
  EXPECT_TRUE(rater.exhausted());
  EXPECT_FALSE(rater.converged());
}

TEST(WindowedRater, EmptyRatingIsInert) {
  WindowedRater rater;
  const Rating r = rater.rating();
  EXPECT_EQ(r.samples, 0u);
  EXPECT_FALSE(r.converged);
}

TEST(Rating, ScoreTimeNormalizesRbr) {
  Rating time_like;
  time_like.eval = 50.0;
  EXPECT_DOUBLE_EQ(time_like.score_time(Method::kCBR), 50.0);
  Rating ratio_like;
  ratio_like.eval = 1.25;  // 25% faster than base
  EXPECT_DOUBLE_EQ(ratio_like.score_time(Method::kRBR), 0.8);
}

TEST(MethodNames, RoundTrip) {
  EXPECT_STREQ(to_string(Method::kCBR), "CBR");
  EXPECT_STREQ(to_string(Method::kMBR), "MBR");
  EXPECT_STREQ(to_string(Method::kRBR), "RBR");
  EXPECT_STREQ(to_string(Method::kAVG), "AVG");
  EXPECT_STREQ(to_string(Method::kWHL), "WHL");
}

TEST(WholeProgramRater, AggregatesRuns) {
  WholeProgramRater rater;
  for (int run = 0; run < 3; ++run) {
    for (int i = 0; i < 100; ++i) rater.add_invocation(10.0);
    rater.end_run();
  }
  EXPECT_EQ(rater.runs(), 3u);
  EXPECT_NEAR(rater.rating().eval, 1000.0, 1e-9);
  EXPECT_TRUE(rater.converged());  // identical runs converge immediately
}

TEST(ContextObliviousRater, IsAPlainWindow) {
  ContextObliviousRater rater;
  for (int i = 0; i < 20; ++i) rater.add(5.0);
  EXPECT_NEAR(rater.rating().eval, 5.0, 1e-12);
}

/// The rater's fast MAD path (sorted mirror + cached rating) must agree
/// exactly with the reference computation it replaced: filter_outliers
/// over the raw window, mean/variance over the kept samples.
TEST(WindowedRater, RatingMatchesFilterOutliers) {
  support::Rng rng(9);
  WindowPolicy policy;
  WindowedRater rater(policy);
  for (int i = 0; i < 400; ++i) {
    // Lognormal noise with occasional large spikes so the MAD filter
    // actually drops samples (and eventually hits its drop quota).
    double x = 100.0 * rng.lognormal(0.05);
    if (i % 17 == 0) x *= 10.0;
    rater.add(x);

    const stats::OutlierResult ref =
        stats::filter_outliers(rater.samples(), policy.outliers);
    const Rating r = rater.rating();
    EXPECT_EQ(stats::mean(ref.kept), r.eval) << "i=" << i;
    EXPECT_EQ(stats::variance(ref.kept), r.var) << "i=" << i;
    EXPECT_EQ(rater.outliers_dropped(), ref.dropped) << "i=" << i;
  }
}

/// reset() must clear the sorted mirror and cached rating along with the
/// samples, not just the sample list.
TEST(WindowedRater, ResetClearsDerivedState) {
  WindowedRater rater;
  for (double x : {5.0, 500.0, 5.0, 5.0}) rater.add(x);
  ASSERT_GT(rater.rating().eval, 0.0);
  rater.reset();
  EXPECT_EQ(rater.size(), 0u);
  EXPECT_EQ(rater.rating().samples, 0u);
  EXPECT_EQ(rater.rating().eval, 0.0);
  rater.add(7.0);
  EXPECT_DOUBLE_EQ(rater.rating().eval, 7.0);
}

/// Property: the standard deviation of window means shrinks like 1/sqrt(w)
/// — the mechanism behind Table 1's consistency-vs-window-size columns.
class WindowSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(WindowSizeSweep, MeanSpreadShrinksWithWindow) {
  const int w = GetParam();
  support::Rng rng(4);
  std::vector<double> window_means;
  for (int rep = 0; rep < 60; ++rep) {
    double sum = 0.0;
    for (int i = 0; i < w; ++i) sum += rng.normal(100.0, 3.0);
    window_means.push_back(sum / w);
  }
  double dev = 0.0;
  for (double m : window_means) dev += (m - 100.0) * (m - 100.0);
  dev = std::sqrt(dev / static_cast<double>(window_means.size()));
  const double predicted = 3.0 / std::sqrt(static_cast<double>(w));
  EXPECT_NEAR(dev, predicted, predicted);  // within 2x of theory
}

INSTANTIATE_TEST_SUITE_P(Table1Windows, WindowSizeSweep,
                         ::testing::Values(10, 20, 40, 80, 160));

TEST(WindowedRater, NonFiniteSamplesAreDroppedNotRated) {
  WindowedRater clean, dirty;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double x : {10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1}) {
    clean.add(x);
    dirty.add(x);
    dirty.add(nan);  // a glitched timer reading between every good sample
  }
  dirty.add(inf);
  dirty.add(-inf);
  EXPECT_EQ(dirty.nonfinite_dropped(), 10u);
  EXPECT_EQ(dirty.size(), clean.size());
  // The rating is computed from the good samples only, bit for bit.
  EXPECT_EQ(dirty.rating().eval, clean.rating().eval);
  EXPECT_EQ(dirty.rating().var, clean.rating().var);
}

TEST(WindowedRater, AllNonFiniteStreamExhaustsInsteadOfSpinning) {
  WindowPolicy policy;
  policy.max_samples = 16;
  WindowedRater rater(policy);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Dropped samples count toward the budget: a measurement loop of the
  // form `while (!converged() && !exhausted())` must terminate even when
  // every reading is garbage.
  for (int i = 0; i < 16; ++i) {
    ASSERT_FALSE(rater.exhausted());
    rater.add(nan);
  }
  EXPECT_TRUE(rater.exhausted());
  EXPECT_FALSE(rater.converged());
  EXPECT_EQ(rater.size(), 0u);
  EXPECT_EQ(rater.rating().samples, 0u);
}

TEST(WindowedRater, ResetClearsNonFiniteTally) {
  WindowedRater rater;
  rater.add(std::numeric_limits<double>::infinity());
  ASSERT_EQ(rater.nonfinite_dropped(), 1u);
  rater.reset();
  EXPECT_EQ(rater.nonfinite_dropped(), 0u);
}

TEST(WholeProgramRater, GarbageRunTotalsExhaustTheRater) {
  WholeProgramRater rater;
  const std::size_t budget =
      WholeProgramRater::whl_policy().max_samples;
  for (std::size_t run = 0; run < budget; ++run) {
    ASSERT_FALSE(rater.exhausted());
    rater.add_invocation(std::numeric_limits<double>::infinity());
    rater.end_run();  // inf run total: dropped, but budgeted
  }
  EXPECT_TRUE(rater.exhausted());
  EXPECT_FALSE(rater.converged());
  EXPECT_EQ(rater.runs(), 0u);
}

// ---- Running verdict vs exact rating -------------------------------------

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// What rating() computed before the rater kept running sums: the generic
/// outlier filter over the window, mean and two-pass variance of the kept
/// samples, and the test stddev(mean) / |EVAL| < cv_threshold.
Rating reference_rating(const std::vector<double>& window,
                        const WindowPolicy& policy) {
  Rating r;
  r.samples = window.size();
  if (window.empty()) return r;
  const stats::OutlierResult f = stats::filter_outliers(window, policy.outliers);
  r.eval = stats::mean(f.kept);
  r.var = stats::variance(f.kept);
  if (f.kept.size() >= policy.min_samples && r.eval != 0.0) {
    const double sem = std::sqrt(r.var / static_cast<double>(f.kept.size()));
    r.converged = sem / std::fabs(r.eval) < policy.cv_threshold;
  }
  return r;
}

/// stddev(mean) / |EVAL| of the reference rating, or NaN when the window
/// cannot converge (too few kept samples or EVAL = 0).
double reference_statistic(const std::vector<double>& window,
                           const WindowPolicy& policy) {
  const stats::OutlierResult f = stats::filter_outliers(window, policy.outliers);
  const double eval = stats::mean(f.kept);
  if (f.kept.empty() || f.kept.size() < policy.min_samples || eval == 0.0)
    return std::numeric_limits<double>::quiet_NaN();
  return std::sqrt(stats::variance(f.kept) /
                   static_cast<double>(f.kept.size())) /
         std::fabs(eval);
}

/// Feed `stream`; after every add, converged() (asked first, so no cached
/// rating answers it) must equal rating().converged, and rating() must
/// equal the reference bit for bit. Counts the converged adds.
void feed_window(const WindowPolicy& policy, const std::vector<double>& stream,
                 const std::string& what, std::size_t* converged_adds) {
  WindowedRater rater(policy);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rater.add(stream[i]);
    const bool fast = rater.converged();
    const Rating r = rater.rating();
    const Rating ref = reference_rating(rater.samples(), policy);
    ASSERT_EQ(fast, r.converged) << what << " add " << i;
    ASSERT_EQ(r.samples, ref.samples) << what << " add " << i;
    ASSERT_EQ(bits(r.eval), bits(ref.eval)) << what << " add " << i;
    ASSERT_EQ(bits(r.var), bits(ref.var)) << what << " add " << i;
    ASSERT_EQ(r.converged, ref.converged) << what << " add " << i;
    if (fast) ++*converged_adds;
  }
}

/// Seeded streams that stress the kept set and the variance bound.
std::vector<double> window_stream(int kind, std::uint64_t seed,
                                  std::size_t n) {
  support::Rng rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    double x = 0.0;
    switch (kind) {
      case 0:  // heavy ties: a handful of levels, MAD often exactly 0
        x = 100.0 + 0.5 * static_cast<double>(rng.uniform_int(0, 2) *
                                              rng.uniform_int(0, 1));
        break;
      case 1:  // frequent spikes: the drop quota binds
        x = 100.0 * rng.lognormal(0.01) * (rng.bernoulli(0.35) ? 7.0 : 1.0);
        break;
      case 2:  // occasional spikes on both sides
        x = 100.0 * rng.lognormal(0.03);
        if (i % 13 == 5) x *= 4.0;
        if (i % 29 == 3) x *= 0.2;
        break;
      case 3:  // non-finite readings between good ones
        x = rng.bernoulli(0.1) ? (rng.bernoulli(0.5) ? nan : -inf)
                               : 50.0 * rng.lognormal(0.02);
        break;
      case 4:  // a large offset: the shifted sums must not cancel
        x = 1e9 + rng.normal(0.0, 3.0);
        break;
      case 5:  // a drifting mean, so the shift falls behind
        x = 100.0 + 0.05 * static_cast<double>(i) + rng.normal(0.0, 0.5);
        break;
      case 6:  // a mean near zero: EVAL tiny against the spread
        x = rng.normal(0.001, 1.0);
        break;
      default:  // bimodal
        x = rng.bernoulli(0.5) ? rng.normal(10.0, 0.1) : rng.normal(12.0, 0.1);
    }
    xs.push_back(x);
  }
  return xs;
}

std::vector<WindowPolicy> window_policies() {
  std::vector<WindowPolicy> out;
  for (stats::OutlierRule rule : {stats::OutlierRule::kMad,
                                  stats::OutlierRule::kNone,
                                  stats::OutlierRule::kSigma}) {
    WindowPolicy p;
    p.outliers.rule = rule;
    out.push_back(p);
    p.min_samples = 1;
    p.cv_threshold = 0.02;
    out.push_back(p);
    p.min_samples = 0;
    p.cv_threshold = 1e-4;
    p.outliers.max_drop_fraction = 0.05;
    out.push_back(p);
  }
  out.push_back(WholeProgramRater::whl_policy());
  return out;
}

TEST(WindowedRaterRunning, VerdictMatchesExactRatingOnSeededStreams) {
  std::size_t converged_adds = 0;
  for (int kind = 0; kind < 8; ++kind) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::vector<double> stream = window_stream(kind, seed, 400);
      const std::vector<WindowPolicy> policies = window_policies();
      for (std::size_t p = 0; p < policies.size(); ++p)
        ASSERT_NO_FATAL_FAILURE(feed_window(
            policies[p], stream,
            "kind " + std::to_string(kind) + " seed " +
                std::to_string(seed) + " policy " + std::to_string(p),
            &converged_adds));
    }
  }
  EXPECT_GT(converged_adds, 0u);  // both verdicts were exercised
}

/// Thresholds set to the exact statistic of one window (verdict false:
/// the test is strict) and to the next double above it (true): the
/// running bound cannot separate them, so these adds take the exact path.
TEST(WindowedRaterRunning, VerdictExactWhenStatisticSitsOnThreshold) {
  for (int kind : {2, 4, 5, 7}) {
    const std::vector<double> stream = window_stream(kind, 11, 300);
    for (stats::OutlierRule rule :
         {stats::OutlierRule::kMad, stats::OutlierRule::kNone}) {
      WindowPolicy base;
      base.outliers.rule = rule;
      for (std::size_t at : {12u, 57u, 140u, 299u}) {
        const std::vector<double> prefix(stream.begin(),
                                         stream.begin() + at + 1);
        const double stat = reference_statistic(prefix, base);
        ASSERT_TRUE(std::isfinite(stat)) << "kind " << kind << " at " << at;
        for (double threshold :
             {stat, std::nextafter(stat, std::numeric_limits<double>::infinity())}) {
          WindowPolicy policy = base;
          policy.cv_threshold = threshold;
          policy.max_samples = 100000;
          WindowedRater rater(policy);
          for (std::size_t i = 0; i <= at; ++i) rater.add(stream[i]);
          const bool fast = rater.converged();
          EXPECT_EQ(fast, threshold > stat) << "kind " << kind << " at " << at;
          EXPECT_EQ(fast, rater.rating().converged);
          std::size_t unused = 0;
          ASSERT_NO_FATAL_FAILURE(feed_window(
              policy, stream, "threshold kind " + std::to_string(kind),
              &unused));
        }
      }
    }
  }
}

TEST(WindowedRaterRunning, ResetRestartsTheRunningState) {
  WindowPolicy policy;
  WindowedRater rater(policy);
  for (double x : window_stream(1, 5, 200)) rater.add(x);
  rater.reset();
  const std::vector<double> stream = window_stream(2, 6, 200);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rater.add(stream[i]);
    const bool fast = rater.converged();
    ASSERT_EQ(fast, reference_rating(rater.samples(), policy).converged)
        << "add " << i;
  }
}

TEST(ContextBasedRaterRunning, VerdictIsTheDominantBucketsExactVerdict) {
  support::Rng rng(21);
  WindowPolicy policy;
  policy.cv_threshold = 0.002;
  ContextBasedRater rater(policy);
  for (int i = 0; i < 900; ++i) {
    const double ctx = static_cast<double>(rng.uniform_int(0, 2));
    double t = (1.0 + ctx) * 100.0 * rng.lognormal(0.02);
    if (i % 31 == 0) t *= 5.0;
    rater.add({ctx}, t);
    const bool fast = rater.converged();
    ASSERT_EQ(fast, rater.rating().converged) << "add " << i;
  }
}

}  // namespace
}  // namespace peak::rating
