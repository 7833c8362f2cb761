// The exact interaction law of a counts-space configuration, grouped into
// active interaction classes — the shared substrate of every round kernel.
//
// Under the uniform scheduler one interaction picks an ordered pair of
// distinct agents, i.e. ordered state pair (a, b) with probability
// w(a,b) / n(n−1), where w(a,b) = c_a·c_b for a ≠ b and w(a,a) = c_a·(c_a−1)
// (an agent never interacts with itself). Both round policies need the same
// derived data from that law each round: the enumeration of *active*
// (non-null) classes with their weights and transitions, the active/total
// weight split for the null binomial, the per-state consumption rates the
// collapsed engine's τ controller integrates, and — on the exact single-draw
// path — a Walker/Vose alias table over the class weights.
//
// A class is one ordered pair, except in two cases:
//   * mirror: f(b,a) is the mirror of f(a,b) (and the interaction refills
//     neither side it drains, see pair_law.cpp). Then (a, b) and (b, a) move
//     the same agents to the same states; they form one class listed as
//     (min, max) with weight 2·c_a·c_b, and apply_one's clamp on the merged
//     count equals the two ordered members applied in turn.
//   * block: a set X of ≥ 3 states where every off-diagonal pair maps to the
//     same (g, g), g ∉ X (for USD: X = the opinions, g = ⊥, every clash).
//     All |X|(|X|−1) ordered pairs form one class, listed last, with weight
//     Σ_{a≠b∈X} c_a·c_b. A round then needs only how many clash endpoints
//     land on each member (its *involvement*), not which pairs clashed;
//     sample_involvement draws that vector exactly from the block's draw
//     count in O(|X|) and apply_block commits it.
// Diagonal and all other pairs stay one entry each. For USD at k opinions
// the law has k + 1 entries (k adoption classes and the block) instead of
// k(k−1)/2 + k, and rebuild() is O(k): it walks a pair list fixed when the
// table was first seen, plus the block's suffix sums. Every weight sum
// (class weights, active_weight(), consumption()) is accumulated exactly in
// 128-bit integers and rounded to double once, so it does not depend on the
// grouping or on summation order.
//
// Cache discipline: rebuild() bumps a generation counter, and the lazily
// built alias table records the generation it was built for — so alias
// staleness can never desynchronize from the law itself. Engines track one
// counter of their own (counts generation) and rebuild the law when it
// moved; everything downstream invalidates through this single chain
// (counts generation → law generation → alias generation) instead of
// hand-maintained dirty flags at every mutation site.
#pragma once

#include <cstdint>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/alias_table.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim::kernels {

class PairLaw {
 public:
  /// One live block member in the involvement chain's walk order (increasing
  /// state). With Q_j the members' count from j on and P_j = Σ_{j≤a<b} c_a·c_b:
  ///   lead = c_j·Q_{j+1} / P_j — a clash not yet placed has j as its
  ///          smaller member (0 when P_j = 0);
  ///   owed = c_j / Q_j — an endpoint owed to members ≥ j lands on j.
  struct BlockStep {
    State state;
    double lead;
    double owed;
  };

  /// Recomputes the active-class enumeration from the live counts: O(the
  /// table's non-null pairs outside the block + |X|). The pair structure
  /// (block detection, mirror merging) is derived from `table` on the first
  /// call and again whenever a different table object is passed. Bumps
  /// generation(); the alias table is invalidated implicitly.
  void rebuild(const TransitionTable& table, const Configuration& config);

  /// True when no active class exists (the configuration is stable: every
  /// interaction is null).
  bool empty() const noexcept { return weight_.empty(); }
  std::size_t size() const noexcept { return weight_.size(); }

  /// Class i's representative pair ((min, max) for a mirror class, the first
  /// two live members for the block), its transition f(a(i), b(i)) and its
  /// weight (the sum over its ordered members).
  State a(std::size_t i) const noexcept { return a_[i]; }
  State b(std::size_t i) const noexcept { return b_[i]; }
  const Transition& transition(std::size_t i) const noexcept { return t_[i]; }
  double weight(std::size_t i) const noexcept { return weight_[i]; }
  const std::vector<double>& weights() const noexcept { return weight_; }

  /// The block's class index; size() when this law has no block class (the
  /// table forms none, or fewer than two members are live).
  std::size_t block() const noexcept { return block_; }
  bool has_block() const noexcept { return block_ < weight_.size(); }
  /// Membership in the table's block X (false everywhere if none formed),
  /// and its target g. Fixed per table, independent of the counts.
  bool in_block(State s) const noexcept {
    return s < in_block_.size() && in_block_[s] != 0;
  }
  State block_target() const noexcept { return block_target_; }
  /// The live members and their chain probabilities (empty without a block
  /// class). sample_involvement's output is indexed like this vector.
  const std::vector<BlockStep>& block_steps() const noexcept { return steps_; }

  /// Σ w over the active ordered pairs / over all n(n−1) ordered pairs. The
  /// ratio is the per-interaction probability of a non-null draw.
  double active_weight() const noexcept { return active_weight_; }
  double total_weight() const noexcept { return total_weight_; }

  /// Per-state Σ w · (agents of s removed by the pair) over the active
  /// ordered pairs: the expected removal weight the collapsed engine's τ
  /// controller bounds against ε·c_s. A block member s gets 2·c_s·(Q − c_s),
  /// Q = the block's live population.
  double consumption(std::size_t s) const noexcept { return consumption_[s]; }
  std::size_t num_states() const noexcept { return consumption_.size(); }

  /// Monotone build counter; 0 before the first rebuild().
  std::uint64_t generation() const noexcept { return generation_; }

  /// Walker/Vose alias table over weights(), built lazily and cached per
  /// generation — callers can never observe a table from a previous build.
  /// Requires !empty().
  const AliasTable& alias() const;

 private:
  /// A non-block active pair of the table, a-major; `merged` pairs stand for
  /// themselves and their mirror.
  struct PairEntry {
    State a;
    State b;
    Transition t;
    bool merged;
  };

  void detect_structure(const TransitionTable& table);

  // Fixed per table (detect_structure).
  const TransitionTable* structure_of_ = nullptr;
  std::vector<PairEntry> pairs_;
  std::vector<State> members_;  ///< X in increasing order; empty if no block
  std::vector<char> in_block_;
  State block_target_ = 0;

  // Rebuilt from the counts.
  std::vector<State> a_;
  std::vector<State> b_;
  std::vector<Transition> t_;
  std::vector<double> weight_;
  std::vector<double> consumption_;
  std::vector<BlockStep> steps_;
  std::vector<unsigned __int128> wide_consumption_;  ///< exact sums, scratch
  std::size_t block_ = 0;
  double active_weight_ = 0.0;
  double total_weight_ = 0.0;
  std::uint64_t generation_ = 0;
  mutable AliasTable alias_;
  mutable std::uint64_t alias_generation_ = 0;  ///< generation alias_ matches
};

/// Outcome of applying drawn interactions to the live counts.
struct ApplyResult {
  Interactions clamped = 0;  ///< attempted-but-unrealised overdraw
  bool moved = false;        ///< any count changed (law is now stale)
};

/// Applies m interactions of active class i with the engines' shared overdraw
/// clamp: bulk moves are limited to the live counts so Configuration's
/// invariants (non-negative counts, constant population) hold
/// unconditionally even when earlier classes in the round drained a state
/// below what the start-of-round weights promised. i must not be the block
/// (its draws commit through apply_block).
ApplyResult apply_one(const PairLaw& law, Configuration& config, std::size_t i,
                      Interactions m);

/// Draws the involvement vector of `clashes` pairs from the block's ordered
/// law ∝ c_a·c_b (a ≠ b), exactly: walking the live members in order with R
/// clashes still unplaced and H endpoints owed to later members,
///   involvement_j = Binomial(R, lead_j) + Binomial(H, owed_j),
/// the first term moving from R into H and the second out of H. Output is
/// indexed like law.block_steps() and sums to 2·clashes. Requires a block.
void sample_involvement(const PairLaw& law, Xoshiro256pp& rng,
                        Interactions clashes,
                        std::vector<std::int64_t>& involvement);

/// Commits the block's involvement: involvement[j] agents move from member
/// block_steps()[j].state to the target g, capped at that member's live
/// count. The cap works per endpoint, so when it binds the counts can differ
/// from the ordered clashes applied one by one. `clamped` counts
/// ⌈L/2⌉ for L endpoints the cap removed: the fewest clashes that could have
/// lost them. With no cap binding this equals apply_one over the ordered
/// clash pairs in any sequence, with clamped = 0.
ApplyResult apply_block(const PairLaw& law, Configuration& config,
                        const std::vector<std::int64_t>& involvement);

/// Applies a whole round's multinomial draws (draws[i] interactions of class
/// i, in class order) through apply_one, and the block's involvement through
/// apply_block, accumulating the clamp count.
ApplyResult apply_draws(const PairLaw& law, Configuration& config,
                        const std::vector<std::int64_t>& draws,
                        const std::vector<std::int64_t>& involvement);

}  // namespace ppsim::kernels
