// Unit and property tests for atlarge::stats.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "atlarge/stats/bootstrap.hpp"
#include "atlarge/stats/descriptive.hpp"
#include "atlarge/stats/distributions.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/stats/violin.hpp"

namespace stats = atlarge::stats;

// ------------------------------------------------------------------- Rng --

TEST(Rng, SameSeedSameStream) {
  stats::Rng a(123);
  stats::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  stats::Rng a(1);
  stats::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  stats::Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  stats::Rng rng(11);
  std::vector<double> sample;
  for (int i = 0; i < 100'000; ++i) sample.push_back(rng.uniform());
  EXPECT_NEAR(stats::mean(sample), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  stats::Rng rng(5);
  bool seen_lo = false;
  bool seen_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen_lo |= v == 3;
    seen_hi |= v == 7;
  }
  EXPECT_TRUE(seen_lo);
  EXPECT_TRUE(seen_hi);
}

TEST(Rng, UniformIntSinglePoint) {
  stats::Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

namespace {

/// uniform_int's rejection rule with its limit computed on every draw (two
/// divisions per draw): the reference the one-division form must match.
std::int64_t uniform_int_reference(stats::Rng& rng, std::int64_t lo,
                                   std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(rng());
  const std::uint64_t limit =
      stats::Rng::max() - stats::Rng::max() % span;
  std::uint64_t draw;
  do {
    draw = rng();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

}  // namespace

TEST(Rng, UniformIntMatchesRejectionReference) {
  // Equal values, and the same raw draw next: both consumed the same
  // number of draws, rejections included.
  const auto same_stream = [](std::uint64_t seed, std::int64_t lo,
                              std::int64_t hi, int draws) {
    stats::Rng fast(seed);
    stats::Rng slow(seed);
    for (int i = 0; i < draws; ++i) {
      ASSERT_EQ(fast.uniform_int(lo, hi), uniform_int_reference(slow, lo, hi))
          << "[" << lo << ", " << hi << "] draw " << i;
    }
    EXPECT_EQ(fast(), slow()) << "[" << lo << ", " << hi << "]";
  };
  for (std::int64_t span = 1; span <= 1000; ++span)
    same_stream(static_cast<std::uint64_t>(span), 0, span - 1, 50);
  same_stream(3, -17, 17, 1000);
  // Spans up to 2^63, where the top `span` values are a large share of
  // all draws: at 2^63 (lo = 0, hi = INT64_MAX) half are rejected.
  for (int bits = 11; bits <= 62; ++bits) {
    const std::int64_t hi = (std::int64_t{1} << bits) + bits;
    same_stream(static_cast<std::uint64_t>(bits), 0, hi, 200);
  }
  same_stream(8, 0, std::numeric_limits<std::int64_t>::max() / 3 * 2, 2000);
  same_stream(9, 0, std::numeric_limits<std::int64_t>::max(), 2000);
  stats::Rng rejecting(9);
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) rejected += rejecting() >= (1ULL << 63);
  EXPECT_GT(rejected, 900);  // the draws above really exercised rejection
}

TEST(Rng, BernoulliEdgeCases) {
  stats::Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, NormalMoments) {
  stats::Rng rng(17);
  std::vector<double> sample;
  for (int i = 0; i < 100'000; ++i) sample.push_back(rng.normal(10.0, 2.0));
  const auto s = stats::summarize(sample);
  EXPECT_NEAR(s.mean, 10.0, 0.05);
  EXPECT_NEAR(s.stddev, 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  stats::Rng rng(23);
  std::vector<double> sample;
  for (int i = 0; i < 100'000; ++i) sample.push_back(rng.exponential(0.25));
  EXPECT_NEAR(stats::mean(sample), 4.0, 0.1);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  stats::Rng a(9);
  stats::Rng b(9);
  stats::Rng fa = a.fork();
  stats::Rng fb = b.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fa(), fb());
  // Parent streams stay aligned after forking.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

// --------------------------------------------------------- distributions --

TEST(Distributions, ZipfPmfSumsToOne) {
  stats::Zipf zipf(100, 1.1);
  double total = 0.0;
  for (std::size_t r = 1; r <= 100; ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Distributions, ZipfRankOneMostLikely) {
  stats::Zipf zipf(50, 1.0);
  EXPECT_GT(zipf.pmf(1), zipf.pmf(2));
  EXPECT_GT(zipf.pmf(2), zipf.pmf(10));
}

TEST(Distributions, ZipfRejectsBadArgs) {
  EXPECT_THROW(stats::Zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(stats::Zipf(10, 0.0), std::invalid_argument);
}

TEST(Distributions, BoundedParetoStaysInBounds) {
  stats::BoundedPareto bp(1.0, 100.0, 1.2);
  stats::Rng rng(3);
  for (int i = 0; i < 20'000; ++i) {
    const double x = bp(rng);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 100.0 + 1e-9);
  }
}

TEST(Distributions, LogNormalMeanMatchesFormula) {
  stats::LogNormal ln(1.0, 0.5);
  stats::Rng rng(3);
  std::vector<double> sample;
  for (int i = 0; i < 200'000; ++i) sample.push_back(ln(rng));
  EXPECT_NEAR(stats::mean(sample), ln.mean(), ln.mean() * 0.02);
}

// ------------------------------------------------------------ descriptive --

TEST(Descriptive, SummaryKnownValues) {
  const std::vector<double> sample = {1, 2, 3, 4, 5};
  const auto s = stats::summarize(sample);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Descriptive, SummaryEmptyIsZero) {
  const auto s = stats::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> sample = {0, 10};
  EXPECT_DOUBLE_EQ(stats::quantile(sample, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(stats::quantile(sample, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(stats::quantile(sample, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::quantile(sample, 1.0), 10.0);
}

TEST(Descriptive, QuantileUnsortedInput) {
  const std::vector<double> sample = {9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(stats::quantile(sample, 0.5), 5.0);
}

TEST(Descriptive, TimeWeightedAverage) {
  stats::TimeWeighted tw;
  tw.observe(0.0, 10.0);
  tw.observe(5.0, 20.0);  // 10 held for [0,5)
  // 20 held for [5,10) -> average = (50 + 100) / 10 = 15
  EXPECT_DOUBLE_EQ(tw.average(10.0), 15.0);
}

TEST(Descriptive, TimeWeightedSingleValue) {
  stats::TimeWeighted tw;
  tw.observe(2.0, 7.0);
  EXPECT_DOUBLE_EQ(tw.average(12.0), 7.0);
}

// ----------------------------------------------------------------- violin --

TEST(Violin, KdeIntegratesToRoughlyOne) {
  stats::Rng rng(41);
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(rng.normal(0.0, 1.0));
  const auto curve = stats::kde(sample, 256);
  ASSERT_GE(curve.grid.size(), 2u);
  double integral = 0.0;
  for (std::size_t i = 0; i + 1 < curve.grid.size(); ++i) {
    integral += curve.density[i] * (curve.grid[i + 1] - curve.grid[i]);
  }
  EXPECT_NEAR(integral, 1.0, 0.05);
}

TEST(Violin, WhiskersClippedToDataRange) {
  const std::vector<double> sample = {1, 2, 3, 4, 100};  // outlier
  const auto v = stats::violin(sample);
  EXPECT_GE(v.whisker_lo, v.stats.min);
  EXPECT_LE(v.whisker_hi, v.stats.max);
  EXPECT_LT(v.whisker_hi, 100.0);  // outlier beyond 1.5 IQR
}

TEST(Violin, BelowCountsStrictly) {
  const std::vector<double> sample = {1, 2, 3, 3, 4};
  const auto v = stats::violin(sample);
  EXPECT_EQ(v.below(3.0), 2u);
  EXPECT_EQ(v.below(5.0), 5u);
  EXPECT_EQ(v.below(0.5), 0u);
}

TEST(Violin, RenderTableContainsLabels) {
  stats::ViolinGroup group;
  group.title = "demo";
  group.labels = {"a", "b"};
  group.violins.push_back(stats::violin(std::vector<double>{1, 2, 3}));
  group.violins.push_back(stats::violin(std::vector<double>{4, 5, 6}));
  const auto table = stats::render_table(group, 3.0);
  EXPECT_NE(table.find("demo"), std::string::npos);
  EXPECT_NE(table.find("a"), std::string::npos);
}

// -------------------------------------------------------------- bootstrap --

TEST(Bootstrap, MeanCiCoversTruth) {
  stats::Rng rng(51);
  std::vector<double> sample;
  for (int i = 0; i < 400; ++i) sample.push_back(rng.normal(7.0, 2.0));
  auto ci_rng = rng.fork();
  const auto ci = stats::bootstrap_mean_ci(sample, ci_rng, 500);
  EXPECT_LT(ci.lo, ci.point);
  EXPECT_GT(ci.hi, ci.point);
  EXPECT_TRUE(ci.contains(7.0));
}

TEST(Bootstrap, SingleElementDegenerates) {
  stats::Rng rng(5);
  const std::vector<double> sample = {3.0};
  const auto ci = stats::bootstrap_mean_ci(sample, rng);
  EXPECT_DOUBLE_EQ(ci.lo, 3.0);
  EXPECT_DOUBLE_EQ(ci.hi, 3.0);
}

TEST(Bootstrap, CustomStatistic) {
  stats::Rng rng(5);
  const std::vector<double> sample = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto ci = stats::bootstrap_ci(
      sample,
      [](std::span<const double> s) { return stats::quantile(s, 0.5); }, rng,
      300);
  EXPECT_GE(ci.point, 1.0);
  EXPECT_LE(ci.point, 9.0);
  EXPECT_LE(ci.lo, ci.hi);
}

// Property sweep: quantiles are monotone in q for arbitrary seeds.
class QuantileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotone, Holds) {
  stats::Rng rng(GetParam());
  std::vector<double> sample;
  for (int i = 0; i < 200; ++i) sample.push_back(rng.normal(0.0, 5.0));
  double prev = stats::quantile(sample, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = stats::quantile(sample, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Property sweep: summary invariants min <= q1 <= median <= q3 <= max.
class SummaryOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SummaryOrdering, Holds) {
  stats::Rng rng(GetParam());
  std::vector<double> sample;
  const int n = 1 + static_cast<int>(GetParam() % 97);
  for (int i = 0; i < n; ++i) sample.push_back(rng.uniform(-100.0, 100.0));
  const auto s = stats::summarize(sample);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_GE(s.stddev, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryOrdering,
                         ::testing::Range<std::uint64_t>(1, 21));
