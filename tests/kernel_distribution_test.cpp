// Distributional validation of the round kernel against the exact
// two-stage law it realises. The golden pins in engine_equivalence_test fix
// its draw sequence; these gates check its output law, five ways:
//   1. chi-square of accumulated class draws (including the null bucket)
//      against the exact start-of-round law;
//   2. the same at k = 4 against the ordered-pair law enumerated
//      independently of PairLaw (ordered_pair_law.hpp), so a wrong merged
//      class weight cannot hide in its own expectation;
//   3. the block's involvement chain, its pmf enumerated branch by branch,
//      against the i.i.d. ordered clash pairs, to 1e-12;
//   4. chi-square of whole three-interaction rounds (class draws and
//      involvement vector) against the ordered-pair law;
//   5. moments of the stage-1 null-split binomial at extreme p, including
//      paper-scale batch sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
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
/// advances each through the round kernel; fills per-task (active, draws,
/// involvement).
void advance_tasks(const PairLaw& law, Interactions batch,
                   std::vector<Xoshiro256pp>& rngs,
                   std::vector<RoundTask>& tasks,
                   std::vector<std::vector<std::int64_t>>& draws,
                   std::vector<std::vector<std::int64_t>>& involvement) {
  tasks.resize(rngs.size());
  draws.resize(rngs.size());
  involvement.resize(rngs.size());
  for (std::size_t l = 0; l < rngs.size(); ++l) {
    tasks[l].law = &law;
    tasks[l].batch = batch;
    tasks[l].rng = &rngs[l];
    tasks[l].draws = &draws[l];
    tasks[l].involvement = &involvement[l];
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
  std::vector<std::vector<std::int64_t>> involvement;

  // Accumulate every draw into one histogram: bucket i = active pair i,
  // last bucket = null interactions. The counts never change (we never
  // apply the draws), so every round samples the same multinomial law.
  std::vector<std::int64_t> observed(law.size() + 1, 0);
  for (int r = 0; r < kRounds; ++r) {
    advance_tasks(law, kBatch, rngs, tasks, draws, involvement);
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
  std::vector<std::vector<std::int64_t>> involvement;
  std::vector<std::int64_t> observed(law.size() + 1, 0);
  for (int r = 0; r < kRounds; ++r) {
    advance_tasks(law, kBatch, rngs, tasks, draws, involvement);
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

/// Binomial(n, p) pmf at k, with p ∈ {0, 1} handled exactly.
double binomial_pmf(std::int64_t n, std::int64_t k, double p) {
  double choose = 1.0;
  for (std::int64_t i = 0; i < k; ++i) {
    choose = choose * static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return choose * std::pow(p, static_cast<double>(k)) *
         std::pow(1.0 - p, static_cast<double>(n - k));
}

using Involvement = std::vector<std::int64_t>;

/// The involvement chain's pmf, enumerated over every branch of its two
/// binomials per member, from `law.block_steps()` as sample_involvement
/// walks it. Mass left with clashes unplaced or endpoints owed at the end
/// lands on the empty key.
void enumerate_chain(const PairLaw& law, std::size_t j, std::int64_t unplaced,
                     std::int64_t owed, double prob, Involvement& vec,
                     std::map<Involvement, double>& pmf) {
  const auto& steps = law.block_steps();
  if (j == steps.size()) {
    pmf[unplaced == 0 && owed == 0 ? vec : Involvement{}] += prob;
    return;
  }
  for (std::int64_t lead = 0; lead <= unplaced; ++lead) {
    const double p_lead = binomial_pmf(unplaced, lead, steps[j].lead);
    if (p_lead == 0.0) continue;
    for (std::int64_t landed = 0; landed <= owed; ++landed) {
      const double p_landed = binomial_pmf(owed, landed, steps[j].owed);
      if (p_landed == 0.0) continue;
      vec[j] = lead + landed;
      enumerate_chain(law, j + 1, unplaced - lead, owed + lead - landed,
                      prob * p_lead * p_landed, vec, pmf);
    }
  }
  vec[j] = 0;
}

/// Index of state s in law.block_steps().
std::size_t step_of(const PairLaw& law, State s) {
  const auto& steps = law.block_steps();
  for (std::size_t j = 0; j < steps.size(); ++j) {
    if (steps[j].state == s) return j;
  }
  return steps.size();
}

TEST(KernelDistributionTest, InvolvementChainPmfEqualsTheOrderedTupleLaw) {
  // M clashes drawn i.i.d. from the ordered clash pairs (weight c_a·c_b,
  // enumerated independently of PairLaw) give a law over involvement
  // vectors; the chain's branch-by-branch pmf must equal it.
  constexpr int kM = 3;
  for (const std::vector<Count>& opinions :
       {std::vector<Count>{5, 3, 2, 1}, std::vector<Count>{1, 4, 3, 3, 2}}) {
    const UndecidedStateDynamics usd(opinions.size());
    const TransitionTable table(usd);
    const Configuration config =
        UndecidedStateDynamics::initial_configuration(opinions, 2);
    PairLaw law;
    law.rebuild(table, config);
    ASSERT_TRUE(law.has_block());

    std::vector<testutil::OrderedPair> clashes;
    double total = 0.0;
    for (const testutil::OrderedPair& p :
         testutil::ordered_active_pairs(table, config)) {
      if (testutil::class_of(law, p.a, p.b) != law.block()) continue;
      clashes.push_back(p);
      total += p.weight;
    }
    ASSERT_EQ(clashes.size(), opinions.size() * (opinions.size() - 1));
    std::map<Involvement, double> ordered;
    std::vector<std::size_t> pick(kM, 0);
    while (true) {
      Involvement vec(law.block_steps().size(), 0);
      double prob = 1.0;
      for (const std::size_t p : pick) {
        ++vec[step_of(law, clashes[p].a)];
        ++vec[step_of(law, clashes[p].b)];
        prob *= clashes[p].weight / total;
      }
      ordered[vec] += prob;
      std::size_t d = 0;
      while (d < pick.size() && ++pick[d] == clashes.size()) pick[d++] = 0;
      if (d == pick.size()) break;
    }

    std::map<Involvement, double> chain;
    Involvement scratch(law.block_steps().size(), 0);
    enumerate_chain(law, 0, kM, 0, 1.0, scratch, chain);
    EXPECT_EQ(chain.count(Involvement{}), 0u) << "chain ends with mass owed";
    std::map<Involvement, double> keys = ordered;
    keys.insert(chain.begin(), chain.end());
    double max_diff = 0.0;
    for (const auto& [vec, unused] : keys) {
      max_diff = std::max(max_diff, std::abs(chain[vec] - ordered[vec]));
    }
    EXPECT_LT(max_diff, 1e-12) << "opinions " << opinions.size();
  }
}

TEST(KernelDistributionTest, RoundOutcomeMatchesTheOrderedLawByChiSquare) {
  // A whole round of three interactions through the kernel (null split,
  // class multinomial, involvement chain) at k = 4 and k = 6 with undecided
  // agents. Its outcome — the adoption-class draws and the involvement
  // vector — is compared with the law of three i.i.d. ordered-pair draws
  // enumerated from the TransitionTable. Outcomes expected fewer than 5
  // times are pooled into one bucket.
  constexpr Interactions kBatch = 3;
  constexpr int kRounds = 60'000;
  for (const Configuration& config :
       {Configuration({6, 14, 11, 9, 7}),
        Configuration({5, 9, 8, 7, 6, 5, 4})}) {
    const UndecidedStateDynamics usd(config.num_states() - 1);
    SCOPED_TRACE(usd.name());
    const TransitionTable table(usd);
    PairLaw law;
    law.rebuild(table, config);
    ASSERT_TRUE(law.has_block());
    const std::size_t members = law.block_steps().size();

    // Key: draws of each non-block class, then the involvement vector.
    const auto n = static_cast<double>(config.population());
    const double total = n * (n - 1.0);
    const auto pairs = testutil::ordered_active_pairs(table, config);
    double active = 0.0;
    for (const testutil::OrderedPair& p : pairs) active += p.weight;
    std::map<Involvement, double> expected;
    std::vector<std::size_t> pick(kBatch, 0);  // pairs.size() = null
    while (true) {
      Involvement key(law.size() - 1 + members, 0);
      double prob = 1.0;
      for (const std::size_t p : pick) {
        if (p == pairs.size()) {
          prob *= 1.0 - active / total;
          continue;
        }
        prob *= pairs[p].weight / total;
        const std::size_t i = testutil::class_of(law, pairs[p].a, pairs[p].b);
        if (i != law.block()) {
          ++key[i];
        } else {
          ++key[law.size() - 1 + step_of(law, pairs[p].a)];
          ++key[law.size() - 1 + step_of(law, pairs[p].b)];
        }
      }
      expected[key] += prob * kRounds * 4.0;
      std::size_t d = 0;
      while (d < pick.size() && ++pick[d] == pairs.size() + 1) pick[d++] = 0;
      if (d == pick.size()) break;
    }

    std::map<Involvement, std::int64_t> seen;
    std::vector<std::int64_t> draws;
    std::vector<std::int64_t> involvement;
    for (int l = 0; l < 4; ++l) {
      Xoshiro256pp rng(2900 + l);
      for (int r = 0; r < kRounds; ++r) {
        RoundTask task{.law = &law, .batch = kBatch, .rng = &rng,
                       .draws = &draws, .involvement = &involvement};
        RoundKernel().advance(task);
        Involvement key(law.size() - 1 + members, 0);
        if (task.active > 0) {
          for (std::size_t i = 0; i + 1 < law.size(); ++i) key[i] = draws[i];
          for (std::size_t j = 0; j < members; ++j) {
            key[law.size() - 1 + j] = involvement[j];
          }
        }
        ++seen[key];
      }
    }

    std::vector<std::int64_t> observed;
    std::vector<double> expect;
    std::int64_t pooled_seen = 0;
    double pooled_expected = 0.0;
    for (const auto& [key, e] : expected) {
      const auto it = seen.find(key);
      const std::int64_t o = it == seen.end() ? 0 : it->second;
      if (it != seen.end()) seen.erase(it);
      if (e < 5.0) {
        pooled_seen += o;
        pooled_expected += e;
      } else {
        observed.push_back(o);
        expect.push_back(e);
      }
    }
    EXPECT_TRUE(seen.empty()) << seen.size() << " outcomes the law forbids";
    observed.push_back(pooled_seen);
    expect.push_back(pooled_expected);
    const double stat = chi_square_statistic(observed, expect);
    const int dof = static_cast<int>(observed.size()) - 1;
    const double p = chi_square_sf(stat, dof);
    EXPECT_GT(p, 1e-4) << "chi-square " << stat << " on " << dof << " dof";
  }
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
    std::vector<std::vector<std::int64_t>> involvement;
    RunningStats stats;
    for (int r = 0; r < kRounds; ++r) {
      advance_tasks(law, c.batch, rngs, tasks, draws, involvement);
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
