// The uniform random scheduler on the clique.
//
// At each discrete time step the scheduler picks an ordered pair of two
// *distinct* agents uniformly at random (Section 1.1 of the paper: "two nodes
// are selected for interaction, chosen uniformly at random (without
// replacement)"). With anonymous agents a configuration is just a count
// vector, and agent index r lies in state find(r) of a Fenwick tree over it.
// The initiator is r1 uniform in [0, n); the responder is r2 uniform in
// [0, n-1) shifted past it (r2 += r2 >= r1), so uniform over the other n-1
// agents. For every (r1, r2) this is the pair that removing the initiator
// from the urn, drawing at r2 and putting it back gives, without touching
// the tree. Simulator and UsdEngine both draw through this class.
#pragma once

#include <utility>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/fenwick.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

class PairSampler {
 public:
  /// Builds the sampler over per-state counts.
  /// Requires a population of at least two agents.
  explicit PairSampler(const std::vector<Count>& counts);
  explicit PairSampler(const Configuration& config) : PairSampler(config.counts()) {}

  /// Draws an ordered pair of states of two distinct uniformly random
  /// agents. Does not modify the tracked counts.
  std::pair<State, State> sample(Xoshiro256pp& rng) noexcept {
    const auto n = static_cast<std::uint64_t>(population_);
    const std::uint64_t r1 = rng.bounded(n);
    std::uint64_t r2 = rng.bounded(n - 1);
    r2 += static_cast<std::uint64_t>(r2 >= r1);
    return {static_cast<State>(weights_.find(static_cast<std::int64_t>(r1))),
            static_cast<State>(weights_.find(static_cast<std::int64_t>(r2)))};
  }

  /// Keeps the sampler in sync after an agent moves between states.
  void move_agent(State from, State to) noexcept {
    if (from == to) return;
    weights_.add(from, -1);
    weights_.add(to, +1);
  }

  /// Churn: one agent joins in / leaves from (occupied) state `s`; n >= 2.
  void add_agent(State s) noexcept {
    weights_.add(s, +1);
    ++population_;
  }
  void remove_agent(State s) noexcept {
    weights_.add(s, -1);
    --population_;
  }

  Count population() const noexcept { return population_; }

 private:
  FenwickTree weights_;
  Count population_;
};

}  // namespace ppsim
