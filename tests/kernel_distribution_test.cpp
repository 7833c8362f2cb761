// Distributional validation of the round kernel against the exact
// two-stage law it realises. The golden pins in engine_equivalence_test fix
// its draw sequence; these gates check its output law, three ways:
//   1. chi-square of accumulated class draws (including the null bucket)
//      against the exact start-of-round law;
//   2. the same at k = 4 against the ordered-pair law enumerated
//      independently of PairLaw (ordered_pair_law.hpp), so a wrong merged
//      class weight cannot hide in its own expectation;
//   3. moments of the stage-1 null-split binomial at extreme p, including
//      paper-scale batch sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ordered_pair_law.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/rng.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim::kernels {
namespace {

/// One-directional epidemic on {0, 1}: f(1, 0) = (1, 1), all else null.
/// With counts (c0, c1) the only active pair has weight c1·c0, giving a
/// single-bucket law whose null-split binomial is easy to reason about.
class OneWayEpidemic final : public Protocol {
 public:
  std::size_t num_states() const override { return 2; }
  Transition apply(State initiator, State responder) const override {
    if (initiator == 1 && responder == 0) return {1, 1};
    return {initiator, responder};
  }
  std::optional<Opinion> output(State) const override { return 0; }
  std::string name() const override { return "one-way epidemic"; }
};

/// Stages one task per generator over `law` with the given batch and
/// advances each through the round kernel; fills per-task (active, draws).
void advance_tasks(const PairLaw& law, Interactions batch,
                   std::vector<Xoshiro256pp>& rngs,
                   std::vector<RoundTask>& tasks,
                   std::vector<std::vector<std::int64_t>>& draws) {
  tasks.resize(rngs.size());
  draws.resize(rngs.size());
  for (std::size_t l = 0; l < rngs.size(); ++l) {
    tasks[l].law = &law;
    tasks[l].batch = batch;
    tasks[l].rng = &rngs[l];
    tasks[l].draws = &draws[l];
    tasks[l].active = 0;
    RoundKernel().advance(tasks[l]);
  }
}

TEST(KernelDistributionTest, PairDrawsMatchTheExactLawByChiSquare) {
  const UndecidedStateDynamics usd(3);
  const TransitionTable table(usd);
  PairLaw law;
  law.rebuild(table, Configuration({10, 40, 35, 25}));
  ASSERT_FALSE(law.empty());

  constexpr Interactions kBatch = 500;
  constexpr int kRounds = 400;
  std::vector<Xoshiro256pp> rngs;
  for (int l = 0; l < 4; ++l) rngs.emplace_back(900 + l);
  std::vector<RoundTask> tasks;
  std::vector<std::vector<std::int64_t>> draws;

  // Accumulate every draw into one histogram: bucket i = active pair i,
  // last bucket = null interactions. The counts never change (we never
  // apply the draws), so every round samples the same multinomial law.
  std::vector<std::int64_t> observed(law.size() + 1, 0);
  for (int r = 0; r < kRounds; ++r) {
    advance_tasks(law, kBatch, rngs, tasks, draws);
    for (std::size_t l = 0; l < rngs.size(); ++l) {
      std::int64_t sum = 0;
      if (tasks[l].active > 0) {
        ASSERT_EQ(draws[l].size(), law.size());
        for (std::size_t i = 0; i < law.size(); ++i) {
          ASSERT_GE(draws[l][i], 0);
          observed[i] += draws[l][i];
          sum += draws[l][i];
        }
      }
      // Conservation: the multinomial places exactly `active` draws.
      ASSERT_EQ(sum, tasks[l].active);
      ASSERT_LE(tasks[l].active, kBatch);
      observed.back() += kBatch - tasks[l].active;
    }
  }

  const double total =
      static_cast<double>(kBatch) * kRounds * static_cast<double>(rngs.size());
  std::vector<double> expected(law.size() + 1, 0.0);
  for (std::size_t i = 0; i < law.size(); ++i) {
    expected[i] = total * law.weight(i) / law.total_weight();
  }
  expected.back() =
      total * (1.0 - law.active_weight() / law.total_weight());

  const double stat = chi_square_statistic(observed, expected);
  const double p = chi_square_sf(stat, static_cast<int>(law.size()));
  EXPECT_GT(p, 1e-4) << "chi-square " << stat << " on " << law.size()
                     << " dof";
}

TEST(KernelDistributionTest, MergedClassDrawsMatchTheOrderedLawByChiSquare) {
  // k = 4 with undecided agents, so both clash and adoption classes merge.
  // Class i's expected share comes from the ordered enumeration (every
  // ordered pair the class carries), never from law.weight(i).
  const UndecidedStateDynamics usd(4);
  const TransitionTable table(usd);
  const Configuration config({12, 40, 30, 25, 18});
  PairLaw law;
  law.rebuild(table, config);
  ASSERT_FALSE(law.empty());

  const auto n = static_cast<double>(config.population());
  std::vector<double> ordered_share(law.size() + 1, 0.0);
  double active = 0.0;
  for (const testutil::OrderedPair& p :
       testutil::ordered_active_pairs(table, config)) {
    const std::size_t i = testutil::class_of(law, p.a, p.b);
    ASSERT_LT(i, law.size());
    ordered_share[i] += p.weight / (n * (n - 1.0));
    active += p.weight;
  }
  ordered_share.back() = 1.0 - active / (n * (n - 1.0));

  constexpr Interactions kBatch = 500;
  constexpr int kRounds = 400;
  std::vector<Xoshiro256pp> rngs;
  for (int l = 0; l < 4; ++l) rngs.emplace_back(1900 + l);
  std::vector<RoundTask> tasks;
  std::vector<std::vector<std::int64_t>> draws;
  std::vector<std::int64_t> observed(law.size() + 1, 0);
  for (int r = 0; r < kRounds; ++r) {
    advance_tasks(law, kBatch, rngs, tasks, draws);
    for (std::size_t l = 0; l < rngs.size(); ++l) {
      if (tasks[l].active > 0) {
        for (std::size_t i = 0; i < law.size(); ++i) {
          observed[i] += draws[l][i];
        }
      }
      observed.back() += kBatch - tasks[l].active;
    }
  }

  const double total =
      static_cast<double>(kBatch) * kRounds * static_cast<double>(rngs.size());
  std::vector<double> expected(ordered_share.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = total * ordered_share[i];
  }
  const double stat = chi_square_statistic(observed, expected);
  const double p = chi_square_sf(stat, static_cast<int>(law.size()));
  EXPECT_GT(p, 1e-4) << "chi-square " << stat << " on " << law.size()
                     << " dof";
}

TEST(KernelDistributionTest, NullSplitBinomialMomentsAtExtremeP) {
  // One active pair: stage-1 active ~ Binomial(batch, c1·c0 / n(n−1)).
  // Near-epidemic-end counts make p extreme; the large batch drives the
  // sampler through its BTRS branch, the tiny p through inversion.
  const OneWayEpidemic epidemic;
  const TransitionTable table(epidemic);
  struct Case {
    Count c0, c1;
    Interactions batch;
  };
  const std::vector<Case> cases = {
      {1, 99'999, 2'000'000},     // p ≈ 1e-5·…: inversion branch
      {50'000, 50'000, 200'000},  // p ≈ 0.25: BTRS branch
      {99'999, 1, 400'000},       // tiny p again, asymmetric counts
  };
  for (const Case& c : cases) {
    PairLaw law;
    law.rebuild(table, Configuration({c.c0, c.c1}));
    ASSERT_EQ(law.size(), 1u);
    const double p_active = law.active_weight() / law.total_weight();
    const double mean = static_cast<double>(c.batch) * p_active;
    const double sd =
        std::sqrt(static_cast<double>(c.batch) * p_active * (1.0 - p_active));

    constexpr int kRounds = 250;
    std::vector<Xoshiro256pp> rngs;
    for (int l = 0; l < 4; ++l) rngs.emplace_back(31 + l);
    std::vector<RoundTask> tasks;
    std::vector<std::vector<std::int64_t>> draws;
    RunningStats stats;
    for (int r = 0; r < kRounds; ++r) {
      advance_tasks(law, c.batch, rngs, tasks, draws);
      for (std::size_t l = 0; l < rngs.size(); ++l) {
        ASSERT_GE(tasks[l].active, 0);
        ASSERT_LE(tasks[l].active, c.batch);
        stats.add(static_cast<double>(tasks[l].active));
      }
    }
    // 5σ window on the sample mean; variance within a generous factor.
    const double samples = static_cast<double>(stats.count());
    EXPECT_NEAR(stats.mean(), mean, 5.0 * sd / std::sqrt(samples))
        << "c0=" << c.c0 << " c1=" << c.c1;
    EXPECT_NEAR(stats.stddev(), sd, 0.2 * sd)
        << "c0=" << c.c0 << " c1=" << c.c1;
  }
}

}  // namespace
}  // namespace ppsim::kernels
