// Test-side reference for kernels::PairLaw: the uniform scheduler's non-null
// interaction law enumerated one ordered state pair at a time, straight from
// the TransitionTable, with none of PairLaw's grouping into mirror classes
// and the clash block.
// kernel_dispatch_test checks PairLaw's classes against it and
// kernel_distribution_test derives its chi-square expectation from it.
#pragma once

#include <cstddef>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/kernels/pair_law.hpp"

namespace ppsim::testutil {

struct OrderedPair {
  State a;
  State b;
  Transition t;
  double weight;  ///< c_a·c_b, or c_a·(c_a − 1) on the diagonal
};

/// Every live, non-null ordered pair (a, b), a-major then b.
inline std::vector<OrderedPair> ordered_active_pairs(
    const TransitionTable& table, const Configuration& config) {
  std::vector<OrderedPair> pairs;
  const auto q = static_cast<State>(config.num_states());
  for (State a = 0; a < q; ++a) {
    for (State b = 0; b < q; ++b) {
      const Count ca = config.count(a);
      const Count cb = a == b ? config.count(b) - 1 : config.count(b);
      if (ca <= 0 || cb <= 0 || table.is_null(a, b)) continue;
      pairs.push_back({a, b, table.apply(a, b),
                       static_cast<double>(ca) * static_cast<double>(cb)});
    }
  }
  return pairs;
}

/// The class of `law` that carries ordered pair (a, b): the block when a ≠ b
/// are both block members, else the one listing (a, b) itself, else the one
/// listing its mirror (b, a) — a merged class. law.size() if none does.
inline std::size_t class_of(const kernels::PairLaw& law, State a, State b) {
  if (a != b && law.in_block(a) && law.in_block(b)) return law.block();
  std::size_t mirror = law.size();
  for (std::size_t i = 0; i < law.size(); ++i) {
    if (law.a(i) == a && law.b(i) == b) return i;
    if (law.a(i) == b && law.b(i) == a) mirror = i;
  }
  return mirror;
}

}  // namespace ppsim::testutil
