// Fenwick (binary indexed) tree over non-negative integer weights, with
// weighted-category sampling.
//
// This is the core data structure of the exact interaction engine: a
// population configuration is a vector of per-state counts, and drawing an
// agent uniformly at random is equivalent to drawing a category with
// probability proportional to its count. The Fenwick tree supports
//   * point update of a count        O(log S)
//   * prefix sum                     O(log S)
//   * inverse-CDF lookup (sampling)  O(log S)
// where S is the number of states — so one interaction costs O(log S)
// regardless of the population size n.
// The tree is padded to P = bit_ceil(S) zero-weight slots (< 2x memory), so
// find() is a fixed ladder of log2(P) in-bounds steps with no branch on the
// random target.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ppsim/util/check.hpp"

namespace ppsim {

/// Fenwick tree specialised to signed 64-bit totals (counts never exceed the
/// population size, and intermediate deltas may be negative).
class FenwickTree {
 public:
  FenwickTree() = default;

  /// Builds a tree of `size` categories, all zero.
  explicit FenwickTree(std::size_t size)
      : size_(size), tree_(std::bit_ceil(size) + 1, 0), top_(std::bit_ceil(size) / 2) {}

  /// Builds a tree from initial per-category weights in O(P).
  explicit FenwickTree(const std::vector<std::int64_t>& weights)
      : FenwickTree(weights.size()) {
    for (std::size_t j = 1; j < tree_.size(); ++j) {
      if (j <= size_) {
        PPSIM_CHECK(weights[j - 1] >= 0, "Fenwick weights must be non-negative");
        tree_[j] += weights[j - 1];
      }
      const std::size_t up = j + (j & -j);
      if (up < tree_.size()) tree_[up] += tree_[j];
    }
  }

  std::size_t size() const noexcept { return size_; }

  /// Adds `delta` to category `i`. The resulting weight must stay >= 0;
  /// enforced only in debug builds (hot path).
  void add(std::size_t i, std::int64_t delta) noexcept {
    for (std::size_t j = i + 1; j < tree_.size(); j += j & -j) tree_[j] += delta;
  }

  /// Sum of weights in categories [0, i).
  std::int64_t prefix_sum(std::size_t i) const noexcept {
    std::int64_t s = 0;
    for (std::size_t j = i; j > 0; j -= j & -j) s += tree_[j];
    return s;
  }

  /// Weight of a single category.
  std::int64_t weight(std::size_t i) const noexcept {
    return prefix_sum(i + 1) - prefix_sum(i);
  }

  /// Total weight over all categories.
  std::int64_t total() const noexcept { return prefix_sum(size_); }

  /// Returns the smallest category c such that prefix_sum(c+1) > target,
  /// i.e. maps target in [0, total) to a category by inverse CDF.
  /// Precondition: 0 <= target < total().
  std::size_t find(std::int64_t target) const noexcept {
    std::size_t pos = 0;  // pos + mask <= P - 1: every probe is in bounds
    for (std::size_t mask = top_; mask != 0; mask >>= 1) {
      const std::int64_t block = tree_[pos + mask];
      const bool take = block <= target;
      pos += take ? mask : 0;
      target -= take ? block : 0;
    }
    return pos;  // categories are 0-based; pos counts full prefix blocks
  }

 private:
  std::size_t size_ = 0;             // S, the number of real categories
  std::vector<std::int64_t> tree_;   // 1-based, P + 1 slots
  std::size_t top_ = 0;              // P / 2, the first mask find() probes
};

}  // namespace ppsim
