// Adaptive trial stopping (--trials auto): the quantile functions behind
// the Student-t interval, the streaming CI accumulator, the stopping rule's
// behavior through the real SweepRunner path, and a statistical calibration
// battery — over many independent adaptive runs the realized coverage of
// the final confidence interval must sit near its nominal level (fixed
// seeds, so the battery is deterministic and CI-stable).
#include "ppsim/analysis/streaming_ci.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ppsim/core/sweep.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/rng.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {
namespace {

TEST(QuantileTest, NormalQuantileMatchesTabulatedValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-6);
  EXPECT_NEAR(normal_quantile(0.95), 1.644854, 1e-6);
  EXPECT_NEAR(normal_quantile(0.841344746), 1.0, 1e-6);
  // Tail values exercise Acklam's tail branches.
  EXPECT_NEAR(normal_quantile(0.999), 3.090232, 1e-5);
  EXPECT_NEAR(normal_quantile(0.001), -3.090232, 1e-5);
}

TEST(QuantileTest, NormalQuantileIsAntisymmetric) {
  for (const double p : {0.6, 0.75, 0.9, 0.99, 0.9999}) {
    EXPECT_NEAR(normal_quantile(p), -normal_quantile(1.0 - p), 1e-8) << p;
  }
}

TEST(QuantileTest, StudentTMatchesTabulatedValues) {
  // dof 1 and 2 are exact closed forms; dof >= 3 is Cornish–Fisher.
  EXPECT_NEAR(student_t_quantile(0.975, 1), 12.7062, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 2), 4.30265, 1e-4);
  EXPECT_NEAR(student_t_quantile(0.975, 10), 2.22814, 2e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 30), 2.04227, 2e-3);
  EXPECT_NEAR(student_t_quantile(0.95, 7), 1.89458, 2e-3);
  // Large dof converges to the normal quantile.
  EXPECT_NEAR(student_t_quantile(0.975, 100000), normal_quantile(0.975), 1e-4);
}

TEST(QuantileTest, PreconditionsAreChecked) {
  EXPECT_THROW(normal_quantile(0.0), CheckFailure);
  EXPECT_THROW(normal_quantile(1.0), CheckFailure);
  EXPECT_THROW(student_t_quantile(0.5, 0), CheckFailure);
  EXPECT_THROW(student_t_quantile(1.5, 3), CheckFailure);
}

TEST(MeanCiTest, KnownSmallSample) {
  // {1..5}: mean 3, sd sqrt(2.5), sem sqrt(0.5); t(0.975, 4) = 2.776445.
  RunningStats stats;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) stats.add(x);
  const CiEstimate ci = mean_ci(stats, 0.95);
  EXPECT_EQ(ci.count, 5);
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.half_width, 2.776445 * std::sqrt(0.5), 5e-3);
  EXPECT_NEAR(ci.relative_half_width(), ci.half_width / 3.0, 1e-12);
}

TEST(MeanCiTest, FewerThanTwoObservationsGiveInfiniteWidth) {
  RunningStats stats;
  EXPECT_TRUE(std::isinf(mean_ci(stats, 0.95).half_width));
  stats.add(42.0);
  EXPECT_TRUE(std::isinf(mean_ci(stats, 0.95).half_width));
  stats.add(42.0);
  EXPECT_FALSE(std::isinf(mean_ci(stats, 0.95).half_width));
}

TEST(MeanCiTest, RelativeHalfWidthEdgeCases) {
  CiEstimate degenerate;
  degenerate.mean = 0.0;
  degenerate.half_width = 0.0;
  EXPECT_DOUBLE_EQ(degenerate.relative_half_width(), 0.0);
  CiEstimate zero_mean;
  zero_mean.mean = 0.0;
  zero_mean.half_width = 1.0;
  EXPECT_TRUE(std::isinf(zero_mean.relative_half_width()));
}

TEST(StreamingCiTest, ConstantStreamSatisfiesAnyTolerance) {
  StreamingCi ci(0.95);
  EXPECT_FALSE(ci.within_relative_error(0.5));  // no data
  ci.add(7.0);
  EXPECT_FALSE(ci.within_relative_error(0.5));  // one observation
  ci.add(7.0);
  EXPECT_TRUE(ci.within_relative_error(1e-12));  // zero-width interval
}

TEST(StreamingCiTest, TightensWithMoreObservations) {
  // Alternating 9/11: mean 10, sd ~1. The relative half-width must shrink
  // below 5% eventually and be monotonically achievable.
  StreamingCi ci(0.95);
  int needed = -1;
  for (int i = 0; i < 4096; ++i) {
    ci.add(i % 2 == 0 ? 9.0 : 11.0);
    if (needed < 0 && ci.count() >= 2 && ci.within_relative_error(0.05)) {
      needed = i + 1;
    }
  }
  ASSERT_GT(needed, 2);
  EXPECT_LT(needed, 64);  // sem ~1/sqrt(n): a few dozen observations suffice
  EXPECT_TRUE(ci.within_relative_error(0.05));
  EXPECT_THROW(StreamingCi(0.0), CheckFailure);
  EXPECT_THROW(StreamingCi(1.0), CheckFailure);
}

// ---------------------------------------------------------------------------
// Stopping-rule behavior through the real SweepRunner adaptive path.
// ---------------------------------------------------------------------------

SweepSpec adaptive_spec(std::uint64_t seed, double rel_err,
                        std::size_t min_trials, std::size_t cap) {
  SweepSpec spec;
  spec.name = "adaptive";
  spec.base_seed = seed;
  spec.trials = cap;
  spec.cells.resize(1);
  spec.stopping.adaptive = true;
  spec.stopping.rel_err = rel_err;
  spec.stopping.confidence = 0.95;
  spec.stopping.min_trials = min_trials;
  spec.stopping.metric = std::string(1, 'x');
  return spec;
}

// Approximately N(10, 2): 10 + 2 * (sum of 12 uniforms - 6), the classic
// Irwin–Hall construction. Deterministic per trial stream.
SweepMetrics noisy_trial(const SweepTrial& ctx) {
  double sum = 0.0;
  for (int i = 0; i < 12; ++i) {
    sum += static_cast<double>(ctx.rng() >> 11) * 0x1.0p-53;
  }
  return SweepMetrics{{"x", 10.0 + 2.0 * (sum - 6.0)}};
}

TEST(AdaptiveStoppingTest, ConstantMetricStopsAtMinTrials) {
  const SweepResult result =
      SweepRunner(adaptive_spec(1, 0.001, 8, 1024))
          .run([](const SweepTrial&) { return SweepMetrics{{"x", 5.0}}; });
  EXPECT_EQ(result.cells[0].trials_run, 8u);
  EXPECT_EQ(result.cells[0].trials_requested, 1024u);
}

TEST(AdaptiveStoppingTest, AbsentMetricStopsAtMinTrialsNotTheCap) {
  // A typo'd metric name must not silently burn the whole cap.
  SweepSpec spec = adaptive_spec(1, 0.05, 8, 1024);
  spec.stopping.metric = "no_such_metric";
  const SweepResult result = SweepRunner(spec).run(noisy_trial);
  EXPECT_EQ(result.cells[0].trials_run, 8u);
}

TEST(AdaptiveStoppingTest, TighterToleranceRunsMoreTrials) {
  const std::size_t loose =
      SweepRunner(adaptive_spec(7, 0.10, 4, 2048)).run(noisy_trial)
          .cells[0].trials_run;
  const std::size_t tight =
      SweepRunner(adaptive_spec(7, 0.02, 4, 2048)).run(noisy_trial)
          .cells[0].trials_run;
  EXPECT_GE(tight, loose);
  EXPECT_GT(tight, 4u);     // the tight tolerance cannot stop at the floor
  EXPECT_LT(tight, 2048u);  // but must converge well before the cap
}

TEST(AdaptiveStoppingTest, CapBoundsTheCellEvenWhenNeverConverged) {
  // rel_err far below what the noise allows within the cap: run to the cap.
  const SweepResult result =
      SweepRunner(adaptive_spec(3, 1e-6, 4, 64)).run(noisy_trial);
  EXPECT_EQ(result.cells[0].trials_run, 64u);
}

// ---------------------------------------------------------------------------
// Calibration battery (the satellite): realized CI coverage vs nominal.
// ---------------------------------------------------------------------------

TEST(AdaptiveStoppingTest, RealizedCoverageIsNearNominal) {
  // 250 independent adaptive runs over a metric with known true mean 10.
  // Each run stops by the rule (90% confidence, 2% relative tolerance) and
  // reports its final interval; the fraction of runs whose interval covers
  // the true mean must sit near 0.90. Adaptive stopping peeks at the data
  // (optional-stopping bias) and the metric is only approximately normal,
  // so the window is generous — but a broken quantile, a wrong sem, or a
  // rule that stops on the wrong prefix lands far outside it.
  constexpr int kReps = 250;
  constexpr double kTrueMean = 10.0;
  constexpr double kConfidence = 0.90;
  constexpr double kRelErr = 0.02;
  int covered = 0;
  std::vector<std::size_t> trials_run;
  for (int rep = 0; rep < kReps; ++rep) {
    SweepSpec spec = adaptive_spec(9000 + static_cast<std::uint64_t>(rep),
                                   kRelErr, 16, 2048);
    spec.stopping.confidence = kConfidence;
    const SweepResult result = SweepRunner(spec).run(noisy_trial);
    const SweepCellResult& cell = result.cells[0];
    trials_run.push_back(cell.trials_run);
    RunningStats stats;
    for (const double x : cell.values("x")) stats.add(x);
    ASSERT_EQ(stats.count(), static_cast<std::int64_t>(cell.trials_run));
    const CiEstimate ci = mean_ci(stats, kConfidence);
    // The stopping rule's own contract: the reported interval is within the
    // requested relative tolerance (or the cap was hit, which the bound on
    // trials_run below rules out).
    EXPECT_LE(ci.relative_half_width(), kRelErr) << "rep " << rep;
    if (std::abs(ci.mean - kTrueMean) <= ci.half_width) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kReps;
  EXPECT_GE(coverage, 0.82) << "realized coverage " << coverage;
  EXPECT_LE(coverage, 0.98) << "realized coverage " << coverage;
  // Sanity on the stopping point: sem ~ 2/sqrt(n) and the target half-width
  // is 0.2, so n should land in the low hundreds — never at the floor or
  // the cap.
  for (const std::size_t n : trials_run) {
    EXPECT_GT(n, 16u);
    EXPECT_LT(n, 2048u);
  }
}

}  // namespace
}  // namespace ppsim
