// Fenwick tree: exactness against a naive reference under random updates,
// inverse-CDF sampling semantics, and edge shapes (single category, zero
// weights).
#include "ppsim/util/fenwick.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ppsim/util/check.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {
namespace {

TEST(FenwickTree, EmptyTreeHasZeroSizeAndTotal) {
  FenwickTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total(), 0);
}

TEST(FenwickTree, ConstructFromWeights) {
  FenwickTree t(std::vector<std::int64_t>{3, 0, 5, 2});
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total(), 10);
  EXPECT_EQ(t.weight(0), 3);
  EXPECT_EQ(t.weight(1), 0);
  EXPECT_EQ(t.weight(2), 5);
  EXPECT_EQ(t.weight(3), 2);
}

TEST(FenwickTree, RejectsNegativeWeights) {
  EXPECT_THROW(FenwickTree(std::vector<std::int64_t>{1, -1}), CheckFailure);
}

TEST(FenwickTree, PrefixSumsMatchDefinition) {
  FenwickTree t(std::vector<std::int64_t>{3, 0, 5, 2});
  EXPECT_EQ(t.prefix_sum(0), 0);
  EXPECT_EQ(t.prefix_sum(1), 3);
  EXPECT_EQ(t.prefix_sum(2), 3);
  EXPECT_EQ(t.prefix_sum(3), 8);
  EXPECT_EQ(t.prefix_sum(4), 10);
}

TEST(FenwickTree, AddUpdatesSums) {
  FenwickTree t(std::vector<std::int64_t>{1, 1, 1});
  t.add(1, 4);
  EXPECT_EQ(t.weight(1), 5);
  EXPECT_EQ(t.total(), 7);
  t.add(1, -5);
  EXPECT_EQ(t.weight(1), 0);
  EXPECT_EQ(t.total(), 2);
}

TEST(FenwickTree, FindMapsTargetsToCategories) {
  // weights [3, 0, 5, 2] -> CDF boundaries 3, 3, 8, 10.
  FenwickTree t(std::vector<std::int64_t>{3, 0, 5, 2});
  EXPECT_EQ(t.find(0), 0u);
  EXPECT_EQ(t.find(2), 0u);
  EXPECT_EQ(t.find(3), 2u);  // category 1 has zero weight and is skipped
  EXPECT_EQ(t.find(7), 2u);
  EXPECT_EQ(t.find(8), 3u);
  EXPECT_EQ(t.find(9), 3u);
}

TEST(FenwickTree, FindNeverReturnsZeroWeightCategory) {
  FenwickTree t(std::vector<std::int64_t>{0, 7, 0, 0, 4, 0});
  for (std::int64_t target = 0; target < t.total(); ++target) {
    const std::size_t c = t.find(target);
    EXPECT_GT(t.weight(c), 0) << "target " << target << " mapped to " << c;
  }
}

TEST(FenwickTree, SingleCategory) {
  FenwickTree t(std::vector<std::int64_t>{42});
  EXPECT_EQ(t.total(), 42);
  for (std::int64_t target : {0, 1, 41}) EXPECT_EQ(t.find(target), 0u);
}

TEST(FenwickTree, NonPowerOfTwoSizes) {
  for (std::size_t size : {1u, 2u, 3u, 5u, 7u, 13u, 100u, 257u}) {
    std::vector<std::int64_t> w(size);
    std::iota(w.begin(), w.end(), 1);  // 1, 2, ..., size
    FenwickTree t(w);
    std::int64_t cum = 0;
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(t.prefix_sum(i), cum);
      cum += w[i];
      // every target inside category i maps back to i
      EXPECT_EQ(t.find(cum - 1), i);
      EXPECT_EQ(t.find(cum - w[i]), i);
    }
  }
}

TEST(FenwickTree, RandomizedAgainstNaiveReference) {
  constexpr std::size_t kSize = 37;
  constexpr int kOps = 5000;
  Xoshiro256pp rng(2024);
  std::vector<std::int64_t> naive(kSize, 0);
  FenwickTree t(kSize);
  // seed with some initial mass so find() is callable
  for (std::size_t i = 0; i < kSize; ++i) {
    naive[i] = static_cast<std::int64_t>(rng.bounded(10));
    t.add(i, naive[i]);
  }
  for (int op = 0; op < kOps; ++op) {
    const auto i = static_cast<std::size_t>(rng.bounded(kSize));
    // random delta in [-naive[i], +5]: keeps weights non-negative
    const auto delta =
        static_cast<std::int64_t>(rng.bounded(static_cast<std::uint64_t>(naive[i]) + 6)) -
        naive[i];
    naive[i] += delta;
    t.add(i, delta);

    // spot-check prefix sums and find()
    const auto probe = static_cast<std::size_t>(rng.bounded(kSize + 1));
    std::int64_t expect = 0;
    for (std::size_t j = 0; j < probe; ++j) expect += naive[j];
    ASSERT_EQ(t.prefix_sum(probe), expect) << "op " << op;

    const std::int64_t total = t.total();
    if (total > 0) {
      const auto target = static_cast<std::int64_t>(
          rng.bounded(static_cast<std::uint64_t>(total)));
      const std::size_t found = t.find(target);
      // verify inverse-CDF contract: prefix_sum(found) <= target < prefix_sum(found+1)
      ASSERT_LE(t.prefix_sum(found), target);
      ASSERT_GT(t.prefix_sum(found + 1), target);
    }
  }
}

// Inverse CDF by linear scan: the definition find() must reproduce.
std::size_t linear_find(const std::vector<std::int64_t>& w, std::int64_t target) {
  std::size_t c = 0;
  while (target >= w[c]) target -= w[c++];
  return c;
}

void expect_find_matches_linear_scan(const FenwickTree& t,
                                     const std::vector<std::int64_t>& w) {
  std::int64_t total = 0;
  for (const std::int64_t x : w) total += x;
  ASSERT_EQ(t.total(), total);
  for (std::int64_t target = 0; target < total; ++target) {
    ASSERT_EQ(t.find(target), linear_find(w, target))
        << "size " << w.size() << ", target " << target;
  }
}

TEST(FenwickTree, FindMatchesLinearScanForEveryTarget) {
  // Sizes on both sides of powers of two (the tree pads to the next one),
  // zero-weight categories throughout, and adds that empty categories —
  // the first and the last included — and refill them.
  for (const std::size_t size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 65u}) {
    Xoshiro256pp rng(size);
    std::vector<std::int64_t> w(size);
    for (auto& x : w) x = rng.bernoulli(0.3) ? 0 : static_cast<std::int64_t>(rng.bounded(4));
    w[rng.bounded(size)] += 1;  // at least one target
    FenwickTree t(w);
    expect_find_matches_linear_scan(t, w);
    for (int op = 0; op < 40; ++op) {
      std::size_t i = static_cast<std::size_t>(rng.bounded(size));
      if (op == 0) i = 0;
      if (op == 1) i = size - 1;
      // Empty category i, or refill it with 1–3 units.
      const std::int64_t delta =
          w[i] > 0 ? -w[i] : static_cast<std::int64_t>(1 + rng.bounded(3));
      t.add(i, delta);
      w[i] += delta;
      std::int64_t total = 0;
      for (const std::int64_t x : w) total += x;
      if (total == 0) {  // keep one unit so find() has a target
        t.add(i, 1);
        w[i] = 1;
      }
      expect_find_matches_linear_scan(t, w);
    }
  }
}

TEST(FenwickTree, SamplingDistributionMatchesWeights) {
  FenwickTree t(std::vector<std::int64_t>{1, 2, 3, 4});
  Xoshiro256pp rng(555);
  constexpr int kDraws = 100000;
  std::vector<int> hits(4, 0);
  for (int i = 0; i < kDraws; ++i) {
    const auto target =
        static_cast<std::int64_t>(rng.bounded(static_cast<std::uint64_t>(t.total())));
    ++hits[t.find(target)];
  }
  for (std::size_t c = 0; c < 4; ++c) {
    const double expected = static_cast<double>(t.weight(c)) / 10.0;
    const double actual = static_cast<double>(hits[c]) / kDraws;
    EXPECT_NEAR(actual, expected, 0.01) << "category " << c;
  }
}

}  // namespace
}  // namespace ppsim
