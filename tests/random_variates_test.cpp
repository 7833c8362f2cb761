// Alias table + binomial/multinomial/hypergeometric samplers: moment checks,
// conservation, degenerate cases, and distribution-shape chi-square tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "ppsim/util/alias_table.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"
#include "ppsim/util/rng.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {
namespace {

// ---------------------------------------------------------------- alias ----

TEST(AliasTable, RejectsBadWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), CheckFailure);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -0.5}), CheckFailure);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), CheckFailure);
}

TEST(AliasTable, NormalizesProbabilities) {
  AliasTable t(std::vector<double>{2.0, 6.0});
  EXPECT_DOUBLE_EQ(t.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(t.probability(1), 0.75);
}

TEST(AliasTable, SingleCategoryAlwaysSampled) {
  AliasTable t(std::vector<double>{3.0});
  Xoshiro256pp rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(t.sample(rng), 0u);
}

TEST(AliasTable, ZeroWeightCategoryNeverSampled) {
  AliasTable t(std::vector<double>{1.0, 0.0, 1.0});
  Xoshiro256pp rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(t.sample(rng), 1u);
}

TEST(AliasTable, EmpiricalDistributionMatchesWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 10.0};
  AliasTable t(weights);
  Xoshiro256pp rng(77);
  constexpr int kDraws = 200000;
  std::vector<std::int64_t> hits(weights.size(), 0);
  for (int i = 0; i < kDraws; ++i) ++hits[t.sample(rng)];
  std::vector<double> expected(weights.size());
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (std::size_t c = 0; c < weights.size(); ++c) {
    expected[c] = weights[c] / sum * kDraws;
  }
  const double stat = chi_square_statistic(hits, expected);
  EXPECT_GT(chi_square_sf(stat, static_cast<int>(weights.size()) - 1), 1e-6);
}

// ------------------------------------------------------------- binomial ----

TEST(Binomial, DegenerateCases) {
  Xoshiro256pp rng(3);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100);
  EXPECT_THROW(binomial(rng, -1, 0.5), CheckFailure);
}

TEST(Binomial, ClampsProbability) {
  Xoshiro256pp rng(3);
  EXPECT_EQ(binomial(rng, 10, -0.2), 0);
  EXPECT_EQ(binomial(rng, 10, 1.7), 10);
}

TEST(Binomial, MomentsMatchTheory) {
  Xoshiro256pp rng(17);
  constexpr std::int64_t kTrials = 400;
  constexpr double kP = 0.3;
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(binomial(rng, kTrials, kP)));
  }
  const double mean = kTrials * kP;
  const double var = kTrials * kP * (1 - kP);
  EXPECT_NEAR(stats.mean(), mean, 4.0 * std::sqrt(var / 20000.0) + 0.5);
  EXPECT_NEAR(stats.variance(), var, 0.1 * var);
}

TEST(Binomial, ChiSquareAgainstTheExactPmfAtTheAlgorithmSwitch) {
  // binomial() switches from inversion to BTRS rejection at n·p = 10; both
  // sides of the switch must reproduce the exact pmf. Tail classes are
  // pooled until each expects at least 5 hits.
  constexpr std::int64_t kN = 1000;
  constexpr int kDraws = 200000;
  for (const double p : {0.00999, 0.01}) {
    binomial_detail::BinomialDraw setup;
    ASSERT_TRUE(setup.init(kN, p));
    EXPECT_EQ(setup.use_btrs, p == 0.01) << "p=" << p;

    std::vector<double> pmf(kN + 1);
    for (std::int64_t k = 0; k <= kN; ++k) {
      const double kd = static_cast<double>(k);
      pmf[k] = std::exp(std::lgamma(kN + 1.0) - std::lgamma(kd + 1.0) -
                        std::lgamma(kN - kd + 1.0) + kd * std::log(p) +
                        (kN - kd) * std::log1p(-p));
    }
    Xoshiro256pp rng(4242);
    std::vector<std::int64_t> hits(kN + 1, 0);
    for (int i = 0; i < kDraws; ++i) ++hits[binomial(rng, kN, p)];

    std::vector<std::int64_t> observed;
    std::vector<double> expected;
    std::int64_t pooled_hits = 0;
    double pooled_mass = 0.0;
    double cdf = 0.0;
    for (std::int64_t k = 0; k <= kN; ++k) {
      pooled_hits += hits[k];
      pooled_mass += pmf[k];
      cdf += pmf[k];
      if (pooled_mass * kDraws >= 5.0 && (1.0 - cdf) * kDraws >= 5.0) {
        observed.push_back(pooled_hits);
        expected.push_back(pooled_mass * kDraws);
        pooled_hits = 0;
        pooled_mass = 0.0;
      }
    }
    observed.push_back(pooled_hits);
    expected.push_back(pooled_mass * kDraws);
    ASSERT_GE(observed.size(), 10u);
    const double stat = chi_square_statistic(observed, expected);
    EXPECT_GT(chi_square_sf(stat, static_cast<int>(observed.size()) - 1), 1e-6)
        << "p=" << p << " chi2=" << stat;
  }
}

// ----------------------------------------------------------- multinomial ----

TEST(Multinomial, ConservesTrials) {
  Xoshiro256pp rng(5);
  const std::vector<double> w = {0.1, 0.5, 0.2, 0.2};
  for (std::int64_t trials : {0ll, 1ll, 17ll, 1000ll, 123456ll}) {
    const auto out = multinomial(rng, trials, w);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::int64_t{0}), trials);
  }
}

TEST(Multinomial, ZeroWeightBucketsGetNothing) {
  Xoshiro256pp rng(6);
  const auto out = multinomial(rng, 10000, std::vector<double>{1.0, 0.0, 1.0, 0.0});
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[3], 0);
  EXPECT_EQ(out[0] + out[2], 10000);
}

TEST(Multinomial, RejectsInvalidInput) {
  Xoshiro256pp rng(7);
  EXPECT_THROW(multinomial(rng, 5, std::vector<double>{1.0, -1.0}), CheckFailure);
  EXPECT_THROW(multinomial(rng, 5, std::vector<double>{0.0, 0.0}), CheckFailure);
  // zero trials with zero mass is fine
  const auto out = multinomial(rng, 0, std::vector<double>{0.0, 0.0});
  EXPECT_EQ(out[0] + out[1], 0);
}

TEST(Multinomial, IntegerWeightOverloadAgreesOnMarginals) {
  Xoshiro256pp rng(8);
  const std::vector<std::int64_t> w = {1, 2, 7};
  RunningStats bucket0;
  constexpr int kReps = 5000;
  constexpr std::int64_t kTrials = 100;
  for (int i = 0; i < kReps; ++i) {
    const auto out = multinomial(rng, kTrials, w);
    bucket0.add(static_cast<double>(out[0]));
  }
  EXPECT_NEAR(bucket0.mean(), kTrials * 0.1, 0.15);
}

TEST(Multinomial, MarginalsAreBinomial) {
  Xoshiro256pp rng(9);
  const std::vector<double> w = {0.25, 0.75};
  constexpr std::int64_t kTrials = 200;
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(multinomial(rng, kTrials, w)[0]));
  }
  EXPECT_NEAR(stats.mean(), 50.0, 0.5);
  EXPECT_NEAR(stats.variance(), 200 * 0.25 * 0.75, 0.1 * 37.5);
}

// -------------------------------------------------------- hypergeometric ----

TEST(Hypergeometric, DegenerateCases) {
  Xoshiro256pp rng(10);
  EXPECT_EQ(hypergeometric(rng, 5, 5, 0), 0);
  EXPECT_EQ(hypergeometric(rng, 0, 10, 4), 0);
  EXPECT_EQ(hypergeometric(rng, 10, 0, 4), 4);
  EXPECT_EQ(hypergeometric(rng, 3, 3, 6), 3);  // draw everything
  EXPECT_THROW(hypergeometric(rng, 2, 2, 5), CheckFailure);
  EXPECT_THROW(hypergeometric(rng, -1, 2, 1), CheckFailure);
}

TEST(Hypergeometric, StaysInSupport) {
  Xoshiro256pp rng(11);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t x = hypergeometric(rng, 7, 5, 6);
    EXPECT_GE(x, 1);  // max(0, draws - failures) = 1
    EXPECT_LE(x, 6);  // min(successes, draws)
  }
}

TEST(Hypergeometric, MomentsMatchTheory) {
  Xoshiro256pp rng(12);
  constexpr std::int64_t kS = 300;
  constexpr std::int64_t kF = 700;
  constexpr std::int64_t kD = 100;
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(hypergeometric(rng, kS, kF, kD)));
  }
  const double n = kS + kF;
  const double mean = kD * kS / n;
  const double var = kD * (kS / n) * (kF / n) * (n - kD) / (n - 1);
  EXPECT_NEAR(stats.mean(), mean, 0.2);
  EXPECT_NEAR(stats.variance(), var, 0.1 * var);
}

TEST(Hypergeometric, LargeDrawBranchMatchesMoments) {
  // draws > pool/2 exercises the complement reduction.
  Xoshiro256pp rng(13);
  constexpr std::int64_t kS = 40;
  constexpr std::int64_t kF = 60;
  constexpr std::int64_t kD = 80;
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(hypergeometric(rng, kS, kF, kD)));
  }
  const double n = kS + kF;
  const double mean = kD * kS / n;
  EXPECT_NEAR(stats.mean(), mean, 0.1);
}

// --------------------------- binomial stability at paper-scale parameters --

// The collapsed engine feeds the null-split binomial n up to the 2^53 count
// cap with p that can be extreme on both ends (active weight is a vanishing
// or an overwhelming fraction of n(n−1)). These pin the sampler in exactly
// those regimes: no overflow, no silent saturation, and the right first two
// moments.

TEST(BinomialStability, RejectsNaNProbability) {
  Xoshiro256pp rng(1);
  EXPECT_THROW(binomial(rng, 10, std::nan("")), CheckFailure);
}

TEST(BinomialStability, TinyPAtHugeNMatchesThePoissonLimit) {
  // Binomial(1e11, 1e-9) ≈ Poisson(100): mean 100, variance ~100. A naive
  // sampler walking the CDF from 0 in linear space would underflow the pmf
  // (log P(0) ≈ −100) or loop ~1e11 times; the real one must stay exact.
  Xoshiro256pp rng(2024);
  constexpr std::int64_t kN = 100'000'000'000;  // 1e11
  constexpr double kP = 1e-9;
  constexpr int kSamples = 2000;
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t x = binomial(rng, kN, kP);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, kN);
    stats.add(static_cast<double>(x));
  }
  const double mean = static_cast<double>(kN) * kP;  // 100
  EXPECT_NEAR(stats.mean(), mean, 6.0 * std::sqrt(mean / kSamples));
  EXPECT_NEAR(stats.variance(), mean, 0.2 * mean);
}

TEST(BinomialStability, ReflectionAtPNearOne) {
  // p > 0.5 exercises the sampler's internal reflection: the complement
  // count Binomial(n, 1−p) must come out right, not the raw walk.
  Xoshiro256pp rng(2025);
  constexpr std::int64_t kN = 100'000'000'000;
  constexpr double kP = 1.0 - 1e-9;
  constexpr int kSamples = 2000;
  RunningStats complement;
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t x = binomial(rng, kN, kP);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, kN);
    complement.add(static_cast<double>(kN - x));
  }
  const double mean = static_cast<double>(kN) * 1e-9;  // 100
  EXPECT_NEAR(complement.mean(), mean, 6.0 * std::sqrt(mean / kSamples));
}

TEST(BinomialStability, HalfPAtTheCountCapKeepsExactMoments) {
  // n = 2^53 is the engines' kMaxPopulation guard: every count is still
  // exactly representable in a double. sd = sqrt(n)/2 ≈ 4.7e7.
  Xoshiro256pp rng(2026);
  constexpr std::int64_t kN = std::int64_t{1} << 53;
  constexpr int kSamples = 400;
  const double mean = static_cast<double>(kN) / 2.0;
  const double sd = std::sqrt(static_cast<double>(kN)) / 2.0;
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t x = binomial(rng, kN, 0.5);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, kN);
    // Any individual draw beyond 8σ of the mean indicates a broken sampler,
    // not bad luck (P < 1e-15 per draw).
    ASSERT_NEAR(static_cast<double>(x), mean, 8.0 * sd);
    stats.add(static_cast<double>(x));
  }
  EXPECT_NEAR(stats.mean(), mean, 6.0 * sd / std::sqrt(kSamples));
}

TEST(BinomialStability, ExtremeTailsStayInBounds) {
  // 6σ two-sided bound at several (n, p) corners of the engines' operating
  // envelope; each corner gets enough draws to catch systematic bias.
  struct Corner {
    std::int64_t n;
    double p;
  };
  const std::vector<Corner> corners = {
      {std::int64_t{1} << 53, 1e-12}, {std::int64_t{1} << 53, 1.0 - 1e-12},
      {1'000'000'000'000, 0.3},       {1'000'000'000'000, 0.7},
  };
  Xoshiro256pp rng(2027);
  for (const Corner& c : corners) {
    RunningStats stats;
    constexpr int kSamples = 200;
    const double mean = static_cast<double>(c.n) * c.p;
    const double sd = std::sqrt(mean * (1.0 - c.p));
    for (int i = 0; i < kSamples; ++i) {
      const std::int64_t x = binomial(rng, c.n, c.p);
      ASSERT_GE(x, 0) << "n=" << c.n << " p=" << c.p;
      ASSERT_LE(x, c.n) << "n=" << c.n << " p=" << c.p;
      stats.add(static_cast<double>(x));
    }
    EXPECT_NEAR(stats.mean(), mean, 6.0 * sd / std::sqrt(kSamples) + 1e-9)
        << "n=" << c.n << " p=" << c.p;
  }
}

TEST(MultinomialInto, MatchesTheAllocatingOverloadDrawForDraw) {
  // The kernels' hot path uses the buffer-reusing overload; it must consume
  // the RNG identically to the original (the wrapper contract).
  const std::vector<double> weights = {3.0, 1.0, 0.5, 7.5, 0.0, 2.0};
  Xoshiro256pp a(99);
  Xoshiro256pp b(99);
  std::vector<std::int64_t> buffer(1, 123);  // wrong size: must be resized
  for (int round = 0; round < 50; ++round) {
    multinomial_into(a, 1000 + round, weights, buffer);
    EXPECT_EQ(buffer, multinomial(b, 1000 + round, weights));
  }
  EXPECT_EQ(a(), b());  // identical stream positions afterwards
}

}  // namespace
}  // namespace ppsim
