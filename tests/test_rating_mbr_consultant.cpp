#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rating/consultant.hpp"
#include "rating/mbr.hpp"
#include "stats/regression.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace peak::rating {
namespace {

TEST(Mbr, PaperFigure2WorkedExample) {
  // Figure 2: Y = [11015 5508 6626 6044 8793], C row 1 = [100 50 60 55 80],
  // C row 2 = 1s. Regression yields T = [110.05, 3.75]; the first
  // component dominates, so the version's rating is T_1.
  MbrProfile profile;
  profile.dominant_component = 0;
  MbrPolicy policy;
  policy.min_samples_per_component = 2;
  ModelBasedRater rater(2, profile, policy);
  const double counts[5] = {100, 50, 60, 55, 80};
  const double times[5] = {11015, 5508, 6626, 6044, 8793};
  for (int i = 0; i < 5; ++i) rater.add({counts[i], 1.0}, times[i]);

  const Rating r = rater.rating();
  EXPECT_NEAR(r.eval, 110.05, 0.3);
  EXPECT_LT(r.var, 0.001);
  const std::vector<double> t = rater.component_times();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_NEAR(t[0], 110.05, 0.3);
}

TEST(Mbr, RecoversPlantedComponentTimesUnderNoise) {
  support::Rng rng(11);
  MbrProfile profile;
  profile.c_avg = {50.0, 20.0, 1.0};
  ModelBasedRater rater(3, profile);
  const double t1 = 7.0, t2 = 30.0, tc = 500.0;
  for (int i = 0; i < 300; ++i) {
    const double c1 = rng.uniform(20, 100);
    const double c2 = rng.uniform(5, 40);
    const double y = (t1 * c1 + t2 * c2 + tc) * rng.lognormal(0.01);
    rater.add({c1, c2, 1.0}, y);
  }
  const std::vector<double> t = rater.component_times();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_NEAR(t[0], t1, 0.5);
  EXPECT_NEAR(t[1], t2, 2.0);
  // EVAL = T_avg with the profiled average counts.
  const double expected_tavg = t1 * 50 + t2 * 20 + tc;
  EXPECT_NEAR(rater.rating().eval, expected_tavg, 0.03 * expected_tavg);
}

TEST(Mbr, ConstantOnlyModelDegeneratesToMean) {
  // Single-context sections have only the constant component; the paper
  // notes MBR then equals CBR/AVG. Convergence must still work (by the
  // standard error of the mean, not the residual ratio).
  MbrProfile profile;  // no dominant, no c_avg
  MbrPolicy policy;
  policy.min_samples_per_component = 8;
  ModelBasedRater rater(1, profile, policy);
  support::Rng rng(12);
  for (int i = 0; i < 400 && !rater.converged(); ++i)
    rater.add({1.0}, rng.normal(250.0, 2.0));
  EXPECT_TRUE(rater.converged());
  EXPECT_NEAR(rater.rating().eval, 250.0, 1.0);
}

TEST(Mbr, VarReportsUnexplainedResidual) {
  // Irregular behaviour (per-invocation factor uncorrelated with counts)
  // shows up as a large VAR — the paper's accuracy caveat for MBR.
  support::Rng rng(13);
  MbrProfile profile;
  profile.c_avg = {10.0, 1.0};
  ModelBasedRater rater(2, profile);
  for (int i = 0; i < 200; ++i) {
    const double c = rng.uniform(5, 15);
    rater.add({c, 1.0}, (5.0 * c + 50.0) * rng.lognormal(0.3));
  }
  EXPECT_GT(rater.rating().var, 0.2);
}

TEST(Mbr, TooFewSamplesNotConverged) {
  ModelBasedRater rater(2, MbrProfile{});
  rater.add({1.0, 1.0}, 10.0);
  const Rating r = rater.rating();
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.samples, 1u);
}

TEST(Mbr, RejectsArityMismatch) {
  ModelBasedRater rater(2, MbrProfile{});
  EXPECT_THROW(rater.add({1.0}, 10.0), support::CheckError);
}

TEST(Consultant, RegularFewContextSection) {
  ConsultantInputs in;
  in.cbr_context_scalars_only = true;
  in.num_contexts = 2;
  in.invocations = 3000;
  in.mbr_model_built = true;
  in.num_components = 2;
  in.rbr_no_side_effects = true;
  const MethodDecision d = decide_rating_methods(in);
  // Full chain, cheapest first — the paper's ordering CBR < MBR < RBR.
  ASSERT_EQ(d.chain.size(), 3u);
  EXPECT_EQ(d.chain[0], Method::kCBR);
  EXPECT_EQ(d.chain[1], Method::kMBR);
  EXPECT_EQ(d.chain[2], Method::kRBR);
  EXPECT_EQ(d.initial(), Method::kCBR);
}

TEST(Consultant, TooManyContextsSkipsCbr) {
  ConsultantInputs in;
  in.cbr_context_scalars_only = true;
  in.num_contexts = 500;
  in.invocations = 3000;
  in.mbr_model_built = true;
  in.num_components = 3;
  const MethodDecision d = decide_rating_methods(in);
  EXPECT_FALSE(d.applicable(Method::kCBR));
  EXPECT_EQ(d.initial(), Method::kMBR);
  EXPECT_NE(d.rationale.find("contexts"), std::string::npos);
}

TEST(Consultant, FewInvocationsPerContextSkipsCbr) {
  ConsultantInputs in;
  in.cbr_context_scalars_only = true;
  in.num_contexts = 20;
  in.invocations = 50;  // 2.5 per context < the "10s of times" rule
  in.mbr_model_built = false;
  const MethodDecision d = decide_rating_methods(in);
  EXPECT_FALSE(d.applicable(Method::kCBR));
  EXPECT_EQ(d.initial(), Method::kRBR);
}

TEST(Consultant, NonScalarContextAndIrregularModel) {
  ConsultantInputs in;
  in.cbr_context_scalars_only = false;
  in.mbr_model_built = false;
  in.rbr_no_side_effects = true;
  const MethodDecision d = decide_rating_methods(in);
  ASSERT_EQ(d.chain.size(), 1u);
  EXPECT_EQ(d.chain[0], Method::kRBR);
}

TEST(Consultant, SideEffectsRemoveRbr) {
  ConsultantInputs in;
  in.cbr_context_scalars_only = true;
  in.num_contexts = 1;
  in.invocations = 100;
  in.mbr_model_built = true;
  in.num_components = 1;
  in.rbr_no_side_effects = false;
  const MethodDecision d = decide_rating_methods(in);
  EXPECT_FALSE(d.applicable(Method::kRBR));
  EXPECT_EQ(d.chain.size(), 2u);
}

TEST(Consultant, TooManyComponentsSkipsMbr) {
  ConsultantInputs in;
  in.cbr_context_scalars_only = false;
  in.mbr_model_built = true;
  in.num_components = 12;
  const MethodDecision d = decide_rating_methods(in);
  EXPECT_FALSE(d.applicable(Method::kMBR));
}

TEST(Consultant, EmptyChainFallsBackToWhl) {
  MethodDecision d;
  EXPECT_EQ(d.initial(), Method::kWHL);
}

// ---- Running verdict vs exact rating -------------------------------------

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// What ModelBasedRater::rating() computed before the rater kept running
/// sums: a non-negative QR fit of the whole window, EVAL = wᵀT, VAR the
/// residual ratio, and the standard error of EVAL from the design.
Rating reference_mbr(const std::vector<std::vector<double>>& rows,
                     const std::vector<double>& times,
                     const MbrProfile& profile, const MbrPolicy& policy) {
  const std::size_t p = rows.empty() ? 1 : rows.front().size();
  Rating r;
  r.samples = times.size();
  if (times.size() <
      std::max<std::size_t>(policy.min_samples_per_component * p, p + 1))
    return r;
  stats::Matrix design(times.size(), p);
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t c = 0; c < p; ++c) design(i, c) = rows[i][c];
  const stats::RegressionResult fit = stats::least_squares_nonneg(design, times);
  if (!fit.ok) return r;
  std::vector<double> weights(p, 0.0);
  if (profile.dominant_component) {
    weights[*profile.dominant_component] = 1.0;
  } else if (!profile.c_avg.empty()) {
    weights = profile.c_avg;
  } else {
    for (const auto& row : rows)
      for (std::size_t i = 0; i < p; ++i)
        weights[i] += row[i] / static_cast<double>(rows.size());
  }
  double eval = 0.0;
  for (std::size_t i = 0; i < p; ++i) eval += fit.coefficients[i] * weights[i];
  r.eval = eval;
  r.var = fit.var_ratio();
  const double se = stats::functional_std_error(design, fit, weights);
  r.converged = se >= 0.0 && eval > 0.0 && se / eval < policy.cv_threshold;
  return r;
}

struct MbrStream {
  std::string name;
  std::vector<std::vector<double>> rows;  ///< constant column last
  std::vector<double> times;
};

MbrStream mbr_stream(int kind, std::uint64_t seed, std::size_t n) {
  support::Rng rng(seed);
  MbrStream s;
  s.name = "kind " + std::to_string(kind) + " seed " + std::to_string(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row;
    double t = 0.0;
    switch (kind) {
      case 0:  // one component: the constant alone
        row = {1.0};
        t = 250.0 * rng.lognormal(0.02) * (i % 37 == 3 ? 3.0 : 1.0);
        break;
      case 1: {  // badly scaled components, noisy fit
        const double c1 = rng.uniform(1e4, 5e4);
        const double c2 = rng.uniform(1.0, 10.0);
        row = {c1, c2, 1.0};
        t = (0.01 * c1 + 30.0 * c2 + 500.0) * rng.lognormal(0.05);
        break;
      }
      case 2: {  // badly scaled and nearly noise-free (residual cancels)
        const double c1 = static_cast<double>(rng.uniform_int(1000, 90000));
        const double c2 = static_cast<double>(rng.uniform_int(1, 64));
        row = {c1, c2, 1.0};
        t = (0.002 * c1 + 7.0 * c2 + 40.0) * rng.lognormal(1e-6);
        break;
      }
      case 3: {  // a component whose true time is 0: the clamp acts
        const double c1 = rng.uniform(10, 100);
        const double c2 = rng.uniform(10, 100);
        row = {c1, c2, 1.0};
        t = (5.0 * c1 + 0.0 * c2 + 100.0) * rng.lognormal(0.05);
        break;
      }
      case 4: {  // collinear columns: rank-deficient design
        const double c1 = rng.uniform(10, 100);
        row = {c1, 2.0 * c1, 1.0};
        t = (3.0 * c1 + 50.0) * rng.lognormal(0.02);
        break;
      }
      case 5: {  // a column that never varies from zero
        row = {0.0, rng.uniform(1, 5), 1.0};
        t = (20.0 * row[1] + 10.0) * rng.lognormal(0.02);
        break;
      }
      case 6: {  // a negative true component: the clamp removes it
        const double c1 = rng.uniform(10, 100);
        const double c2 = rng.uniform(10, 100);
        row = {c1, c2, 1.0};
        t = std::max(1.0, (4.0 * c1 - 1.0 * c2 + 300.0) * rng.lognormal(0.02));
        break;
      }
      default: {  // a non-finite reading
        const double c1 = rng.uniform(10, 100);
        row = {c1, 1.0};
        t = i == n / 3 ? std::numeric_limits<double>::quiet_NaN()
                       : (2.0 * c1 + 9.0) * rng.lognormal(0.01);
      }
    }
    s.rows.push_back(row);
    s.times.push_back(t);
  }
  return s;
}

/// Feed `s`; after every add, converged() (asked first) must equal
/// rating().converged, and rating() must equal the reference bit for bit.
void feed_mbr(const MbrStream& s, const MbrProfile& profile,
              const MbrPolicy& policy, std::size_t* converged_adds) {
  const std::size_t p = s.rows.front().size();
  ModelBasedRater rater(p, profile, policy);
  std::vector<std::vector<double>> rows;
  std::vector<double> times;
  for (std::size_t i = 0; i < s.times.size(); ++i) {
    rater.add(s.rows[i], s.times[i]);
    rows.push_back(s.rows[i]);
    times.push_back(s.times[i]);
    const bool fast = rater.converged();
    const Rating r = rater.rating();
    const Rating ref = reference_mbr(rows, times, profile, policy);
    ASSERT_EQ(fast, r.converged) << s.name << " add " << i;
    ASSERT_EQ(r.samples, ref.samples) << s.name << " add " << i;
    ASSERT_EQ(bits(r.eval), bits(ref.eval)) << s.name << " add " << i;
    ASSERT_EQ(bits(r.var), bits(ref.var)) << s.name << " add " << i;
    ASSERT_EQ(r.converged, ref.converged) << s.name << " add " << i;
    if (fast) ++*converged_adds;
  }
}

std::vector<MbrProfile> mbr_profiles(std::size_t p) {
  std::vector<MbrProfile> out(3);
  out[0].dominant_component = 0;
  out[1].c_avg.assign(p, 1.0);
  for (std::size_t i = 0; i + 1 < p; ++i) out[1].c_avg[i] = 20.0 + 10.0 * i;
  return out;  // out[2]: no profile, weights from the mean row
}

TEST(MbrRunning, VerdictMatchesExactRatingOnSeededStreams) {
  std::size_t converged_adds = 0;
  for (int kind = 0; kind < 8; ++kind) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const MbrStream s = mbr_stream(kind, seed, 160);
      for (const MbrProfile& profile : mbr_profiles(s.rows.front().size())) {
        for (double cv : {0.005, 0.02}) {
          MbrPolicy policy;
          policy.cv_threshold = cv;
          policy.min_samples_per_component = 4;
          ASSERT_NO_FATAL_FAILURE(feed_mbr(s, profile, policy, &converged_adds));
        }
      }
    }
  }
  EXPECT_GT(converged_adds, 0u);
}

/// cv_threshold set to the exact se/EVAL of one window (false: the test
/// is strict) and to the next double above it (true).
TEST(MbrRunning, VerdictExactWhenStatisticSitsOnThreshold) {
  for (int kind : {0, 1, 3}) {
    const MbrStream s = mbr_stream(kind, 7, 120);
    const std::size_t p = s.rows.front().size();
    MbrProfile profile;
    profile.dominant_component = 0;
    MbrPolicy base;
    base.min_samples_per_component = 4;
    for (std::size_t at : {20u, 64u, 119u}) {
      stats::Matrix design(at + 1, p);
      for (std::size_t i = 0; i <= at; ++i)
        for (std::size_t c = 0; c < p; ++c) design(i, c) = s.rows[i][c];
      const std::vector<double> y(s.times.begin(), s.times.begin() + at + 1);
      const stats::RegressionResult fit = stats::least_squares_nonneg(design, y);
      ASSERT_TRUE(fit.ok);
      std::vector<double> w(p, 0.0);
      w[0] = 1.0;
      const double stat =
          stats::functional_std_error(design, fit, w) / fit.coefficients[0];
      ASSERT_TRUE(std::isfinite(stat) && stat > 0.0);
      for (double threshold :
           {stat, std::nextafter(stat, std::numeric_limits<double>::infinity())}) {
        MbrPolicy policy = base;
        policy.cv_threshold = threshold;
        ModelBasedRater rater(p, profile, policy);
        for (std::size_t i = 0; i <= at; ++i) rater.add(s.rows[i], s.times[i]);
        EXPECT_EQ(rater.converged(), threshold > stat)
            << "kind " << kind << " at " << at;
        std::size_t unused = 0;
        ASSERT_NO_FATAL_FAILURE(feed_mbr(s, profile, policy, &unused));
      }
    }
  }
}

/// add_counters() is add() with the counters converted and the constant
/// component appended.
TEST(MbrRunning, AddCountersEqualsAddWithConstantColumn) {
  support::Rng rng(31);
  MbrProfile profile;
  profile.c_avg = {40.0, 3.0, 1.0};
  ModelBasedRater by_row(3, profile), by_counters(3, profile);
  for (int i = 0; i < 120; ++i) {
    const auto c1 = static_cast<std::uint64_t>(rng.uniform_int(10, 80));
    const auto c2 = static_cast<std::uint64_t>(rng.uniform_int(1, 6));
    const double t = (2.0 * static_cast<double>(c1) +
                      9.0 * static_cast<double>(c2) + 15.0) *
                     rng.lognormal(0.02);
    by_row.add({static_cast<double>(c1), static_cast<double>(c2), 1.0}, t);
    const std::vector<std::uint64_t> counters = {c1, c2};
    by_counters.add_counters(counters, t);
    ASSERT_EQ(by_row.converged(), by_counters.converged()) << i;
    const Rating a = by_row.rating();
    const Rating b = by_counters.rating();
    ASSERT_EQ(bits(a.eval), bits(b.eval)) << i;
    ASSERT_EQ(a.converged, b.converged) << i;
  }
  EXPECT_THROW(by_counters.add_counters(std::vector<std::uint64_t>{1}, 1.0),
               support::CheckError);
}

}  // namespace
}  // namespace peak::rating
