// PairSampler: the scheduler must draw ordered pairs of *distinct* agents
// uniformly. With counts-based states this means:
//   P[first in state a]  = count(a)/n
//   P[(a, b)]            = count(a)·(count(b) - [a=b]) / (n(n-1)).
// We verify the exact pair distribution with a chi-square test, check
// without-replacement behaviour on singleton states, and pin the index-shift
// responder draw to the remove/draw/re-add urn it replaces, draw for draw.
#include "ppsim/core/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ppsim/util/check.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {
namespace {

TEST(PairSamplerTest, RequiresTwoAgents) {
  EXPECT_THROW(PairSampler(Configuration({1, 0})), CheckFailure);
  EXPECT_NO_THROW(PairSampler(Configuration({1, 1})));
}

TEST(PairSamplerTest, SingletonStateNeverPairsWithItself) {
  // State 0 has exactly one agent: the ordered pair (0, 0) is impossible.
  PairSampler sampler(Configuration({1, 9}));
  Xoshiro256pp rng(1);
  for (int i = 0; i < 20000; ++i) {
    const auto [a, b] = sampler.sample(rng);
    EXPECT_FALSE(a == 0 && b == 0);
  }
}

TEST(PairSamplerTest, TwoAgentsAlwaysMeetEachOther) {
  PairSampler sampler(Configuration({1, 1}));
  Xoshiro256pp rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto [a, b] = sampler.sample(rng);
    EXPECT_NE(a, b);
  }
}

TEST(PairSamplerTest, SamplingDoesNotMutateWeights) {
  PairSampler sampler(Configuration({3, 7}));
  Xoshiro256pp rng(3);
  std::map<std::pair<State, State>, int> first_pass;
  for (int i = 0; i < 1000; ++i) ++first_pass[sampler.sample(rng)];
  // Re-running with the same seed must reproduce the same draws — the urn
  // was restored after every sample.
  Xoshiro256pp rng2(3);
  std::map<std::pair<State, State>, int> second_pass;
  for (int i = 0; i < 1000; ++i) ++second_pass[sampler.sample(rng2)];
  EXPECT_EQ(first_pass, second_pass);
}

TEST(PairSamplerTest, PairDistributionIsExact) {
  // counts = [4, 6], n = 10. Ordered-pair probabilities:
  //   (0,0): 4·3/90, (0,1): 4·6/90, (1,0): 6·4/90, (1,1): 6·5/90.
  const std::vector<Count> counts = {4, 6};
  PairSampler sampler{Configuration(counts)};
  Xoshiro256pp rng(42);
  constexpr int kDraws = 200000;

  std::map<std::pair<State, State>, std::int64_t> hits;
  for (int i = 0; i < kDraws; ++i) ++hits[sampler.sample(rng)];

  std::vector<std::int64_t> observed;
  std::vector<double> expected;
  const double norm = 10.0 * 9.0;
  for (State a = 0; a < 2; ++a) {
    for (State b = 0; b < 2; ++b) {
      observed.push_back(hits[{a, b}]);
      const double ca = static_cast<double>(counts[a]);
      const double cb = static_cast<double>(counts[b]) - (a == b ? 1.0 : 0.0);
      expected.push_back(ca * cb / norm * kDraws);
    }
  }
  const double stat = chi_square_statistic(observed, expected);
  EXPECT_GT(chi_square_sf(stat, 3), 1e-6) << "chi-square " << stat;
}

TEST(PairSamplerTest, ThreeStateMarginalsAreUniformOverAgents) {
  const std::vector<Count> counts = {2, 3, 5};
  PairSampler sampler{Configuration(counts)};
  Xoshiro256pp rng(7);
  constexpr int kDraws = 150000;
  std::vector<std::int64_t> first(3, 0);
  for (int i = 0; i < kDraws; ++i) ++first[sampler.sample(rng).first];
  std::vector<double> expected;
  for (const Count c : counts) expected.push_back(static_cast<double>(c) / 10.0 * kDraws);
  const double stat = chi_square_statistic(first, expected);
  EXPECT_GT(chi_square_sf(stat, 2), 1e-6);
}

TEST(PairSamplerTest, MoveAgentKeepsSamplerInSync) {
  PairSampler sampler(Configuration({10, 0}));
  Xoshiro256pp rng(9);
  // Initially state 1 is empty: never sampled.
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = sampler.sample(rng);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 0u);
  }
  // Move everyone to state 1 and the picture flips.
  for (int i = 0; i < 10; ++i) sampler.move_agent(0, 1);
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = sampler.sample(rng);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 1u);
  }
}

// The urn the index-shift draw replaces, on plain counts: initiator at
// agent index bounded(n), remove it from the urn, responder at index
// bounded(n - 1), put the initiator back. Linear scans keep it independent
// of the Fenwick tree.
State linear_state_at(const std::vector<Count>& counts, std::uint64_t agent) {
  auto remaining = static_cast<Count>(agent);
  for (std::size_t s = 0;; ++s) {
    if (remaining < counts[s]) return static_cast<State>(s);
    remaining -= counts[s];
  }
}

std::pair<State, State> reference_sample(std::vector<Count>& counts, Count n,
                                         Xoshiro256pp& rng) {
  const State a = linear_state_at(counts, rng.bounded(static_cast<std::uint64_t>(n)));
  --counts[a];
  const State b = linear_state_at(counts, rng.bounded(static_cast<std::uint64_t>(n - 1)));
  ++counts[a];
  return {a, b};
}

TEST(PairSamplerTest, IndexShiftDrawMatchesTheRemoveDrawReaddUrn) {
  // 10^5 draws per state-space size, on small random counts with zero-count
  // states; after each draw one agent moves (emptying and refilling states),
  // so the draws cover many configurations.
  constexpr int kDraws = 100000;
  for (const std::size_t size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 65u}) {
    Xoshiro256pp setup(1000 + size);
    std::vector<Count> counts(size);
    for (Count& c : counts) c = setup.bernoulli(0.3) ? 0 : static_cast<Count>(setup.bounded(5));
    counts[setup.bounded(size)] += 2;  // population >= 2
    Count n = 0;
    for (const Count c : counts) n += c;

    PairSampler sampler{Configuration(counts)};
    Xoshiro256pp fast(size);
    Xoshiro256pp reference(size);
    for (int i = 0; i < kDraws; ++i) {
      const auto expected = reference_sample(counts, n, reference);
      ASSERT_EQ(sampler.sample(fast), expected) << "S = " << size << ", draw " << i;
      const State from = linear_state_at(counts, setup.bounded(static_cast<std::uint64_t>(n)));
      const auto to = static_cast<State>(setup.bounded(size));
      --counts[from];
      ++counts[to];
      sampler.move_agent(from, to);
    }
  }
}

TEST(PairSamplerTest, ChurnKeepsThePopulationAndTheDrawInSync) {
  std::vector<Count> counts = {0, 3, 0, 1};
  PairSampler sampler{Configuration(counts)};
  sampler.add_agent(2);
  sampler.add_agent(0);
  sampler.remove_agent(1);
  counts = {1, 2, 1, 1};
  EXPECT_EQ(sampler.population(), 5);
  Xoshiro256pp fast(5);
  Xoshiro256pp reference(5);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(sampler.sample(fast), reference_sample(counts, 5, reference)) << i;
  }
}

}  // namespace
}  // namespace ppsim
