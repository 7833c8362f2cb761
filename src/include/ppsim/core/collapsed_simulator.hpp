// Counts-space ("collapsed") simulation engine for population protocols.
//
// The sequential Simulator already works on counts, but its cost is one RNG
// draw per *interaction*. This engine simulates the pair-count Markov chain
// directly in rounds and is built for populations far beyond what the
// sequential engines can reach (n = 10^9–10^11):
//
//   * State is only the S = |Σ| counts (a Configuration). No per-agent data
//     structure exists at any n.
//   * Under the uniform scheduler one interaction picks the ordered state
//     pair (a, b) with probability w(a,b) / n(n−1), where w(a,b) = c_a·c_b
//     for a ≠ b and w(a,a) = c_a·(c_a − 1) (an agent never interacts with
//     itself).
//   * A round of B interactions draws all B pairs from the start-of-round
//     counts: one binomial splits off the null interactions (f leaves both
//     states unchanged), one exact multinomial distributes the rest over the
//     active pair classes of kernels::PairLaw, and each class's m
//     interactions move m agents in bulk through the TransitionTable. A
//     class is an ordered pair, (a, b) and (b, a) together when f(b, a)
//     mirrors f(a, b) (every USD adoption pair), or a whole block of states
//     whose off-diagonal pairs all map to one (g, g) (the USD clashes). The
//     block's clashes are spread over its members by an exact O(|X|)
//     involvement chain, and each member's endpoints move to g. Grouping a
//     multinomial's buckets and splitting the group afterwards is exact, so
//     the staged draw has the same law as one multinomial over all S²
//     ordered pairs; for USD a round costs O(k), not O(k²).
//
// Two round-length policies share that round:
//   * adaptive (Options::round_divisor = 0, EngineKind::kCollapsed): the τ
//     controller (choose_tau) picks each round's length, and size-1 rounds
//     take an exact single-draw path — Bernoulli(active/total), then a
//     Walker/Vose AliasTable over the active classes, rebuilt lazily only
//     when a count actually moved (a draw on the block runs the involvement
//     chain for one clash);
//   * fixed (round_divisor > 0, EngineKind::kBatched): every round is
//     max(1, n/round_divisor) interactions, n taken at construction, capped
//     by the budget. Every round goes through the kernel, size-1 rounds
//     included: the fixed policy's draw sequence is golden-pinned
//     (ScalarKernelGoldenTest.BatchedFixedRounds), so it must not take the
//     single-draw path.
//
// The τ controller bounds per-round drift error two ways:
//   1. per-state: the *expected* number of interactions consuming state s in
//     the round is at most tau_epsilon · c_s, so no state's count drifts by
//     more than an ε fraction in expectation (and the overdraw clamp, kept
//     for safety, needs a many-sigma multinomial deviation to fire);
//   2. aggregate: τ ≤ tau_epsilon · n, bounding the total fraction of agents
//     whose states go stale within one round (this also covers inflow-driven
//     growth of states that start the round near zero, e.g. u(0) = 0 in the
//     paper's initial configurations).
// With tau_epsilon = 0.05 and USD-style dynamics τ stays near ε·n throughout
// a run — orders of magnitude fewer rounds than interactions — while
// shrinking automatically wherever a state is being drained quickly.
//
// Exactness: single-interaction rounds (max_round = 1, a budget of 1, or a
// divisor ≥ n) realise precisely the sequential Markov chain;
// tests/engine_equivalence_test.cpp pins this against the sequential
// engines. Longer rounds are a τ-leaping approximation: rates are stale by
// the fraction of agents that interact within the round. Bulk moves are
// clamped to the live counts, and clamped_interactions() reports how often
// that fired (~never for ε = 0.05 or divisors ≥ 8). Counts and interaction
// totals use 64-bit saturating arithmetic (util/check sat_add/sat_mul);
// populations are capped at 2^53 so every count stays exactly representable
// in the double-precision weights.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ppsim/core/configuration.hpp"
#include "ppsim/core/protocol.hpp"
#include "ppsim/core/simulator.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

class CollapsedSimulator {
 public:
  struct Options {
    /// Per-round drift tolerance ε of the τ controller (see file comment).
    /// Smaller is more accurate and slower; 0.05 keeps the stabilization-time
    /// distribution within the fixed-round policy's measured KS envelope
    /// while adapting the round length to the configuration.
    double tau_epsilon = 0.05;
    /// Hard cap on the adaptive round length; 0 = no cap (the controller
    /// decides). max_round = 1 forces single-interaction rounds, i.e. the
    /// exact sequential chain.
    Interactions max_round = 0;
    /// 0 = adaptive rounds. A positive divisor fixes every round at
    /// max(1, n/round_divisor) interactions (n at construction) and ignores
    /// tau_epsilon and max_round. Larger divisors mean smaller rounds: less
    /// τ-leaping staleness, more rounds.
    Interactions round_divisor = 0;
    /// Round kernel (kernels/round_kernel.hpp). kScalar is the only kind.
    kernels::KernelKind kernel = kernels::KernelKind::kScalar;
  };

  /// Largest supported population: counts and pair weights must stay exactly
  /// representable in a double (2^53).
  static constexpr Count kMaxPopulation = Count{1} << 53;

  /// The protocol must outlive the simulator. Requires 2 ≤ n ≤ 2^53.
  CollapsedSimulator(const Protocol& protocol, Configuration initial,
                     std::uint64_t seed, Options options);
  CollapsedSimulator(const Protocol& protocol, Configuration initial,
                     std::uint64_t seed);

  const Configuration& configuration() const noexcept { return config_; }
  Interactions interactions() const noexcept { return interactions_; }
  double parallel_time() const noexcept {
    return ppsim::parallel_time(interactions_, config_.population());
  }
  Interactions clamped_interactions() const noexcept { return clamped_; }
  /// Length of the most recent round (0 before the first round). Exposed
  /// for tests and adaptivity diagnostics.
  Interactions last_round_size() const noexcept { return last_round_size_; }

  /// Simulates one round of at most `max_interactions` interactions; the
  /// round policy picks the actual length. Returns the number simulated. If
  /// the configuration is stable the whole budget is consumed in one null
  /// round (nothing can change, so the leap is exact).
  Interactions step_round(Interactions max_interactions);

  /// Runs whole rounds until the protocol stabilizes or `max_interactions`
  /// total interactions (counted from construction) have been simulated.
  /// Same contract as Simulator::run_until_stable.
  RunOutcome run_until_stable(Interactions max_interactions);

  /// Runs until `predicate(config, interactions)` holds or the budget is
  /// exhausted. The predicate is checked once per *round* (round boundaries
  /// are ≤ tau_epsilon·n or n/round_divisor interactions apart, so
  /// per-round observables lag the exact chain by at most that much).
  RunOutcome run_until(
      const std::function<bool(const Configuration&, Interactions)>& predicate,
      Interactions max_interactions);

  /// True iff no applicable pair can change any state.
  bool is_stable() const { return table_.is_stable(config_); }

  /// If every agent's output is the same committed opinion, returns it.
  std::optional<Opinion> consensus_output() const {
    return ppsim::consensus_output(protocol_, config_);
  }

  /// Scenario hooks (core/scenario.hpp, core/faults.hpp): counts-space
  /// corruption and churn between rounds. None of them consume interactions;
  /// all funnel through the single counts-invalidation point, so the pair
  /// law rebuilds before the next round. corrupt_agents moves `m` agents
  /// from → to; add_agents/remove_agents grow/shrink the population (bounded
  /// to [2, kMaxPopulation]).
  void corrupt_agents(State from, State to, Count m);
  void add_agents(State s, Count m);
  void remove_agents(State s, Count m);

  /// Streams strided samples (and engine checkpoints) from inside the run
  /// loops, once per round. Not owned; nullptr detaches.
  void set_recorder(Recorder* recorder) noexcept { recorder_ = recorder; }

  /// Snapshot / restore of the full mutable state. The pair law and its
  /// alias table are deterministic functions of the counts, so restoring
  /// just bumps the counts generation (the single invalidation point); the
  /// resumed run then makes exactly the draws the original would have made.
  EngineCheckpoint checkpoint_state() const;
  void restore_checkpoint(const EngineCheckpoint& state);

  /// The round kernel this engine samples with.
  const kernels::RoundKernel& kernel() const noexcept { return kKernel; }

  /// step_round split at the kernel call, so a caller can time or trace
  /// the three phases separately. stage_round picks the round length and
  /// either handles it locally (stable leap, adaptive single-draw path)
  /// returning false, or stages a kernel task over this engine's law, RNG
  /// and scratch and returns true; the caller then runs kernel().advance
  /// on the task and calls commit_round.
  /// step_round(b) ≡ stage_round(b, t) && (kernel().advance(t),
  /// commit_round(t)). Requires max_interactions > 0.
  bool stage_round(Interactions max_interactions, kernels::RoundTask& task);
  void commit_round(const kernels::RoundTask& task);

 private:
  static constexpr kernels::RoundKernel kKernel{};

  RunOutcome outcome() const;
  void observe() {
    if (recorder_ == nullptr) return;
    recorder_->maybe_sample(config_, interactions_);
    if (recorder_->checkpoint_due(interactions_)) {
      recorder_->record_checkpoint(checkpoint_state());
    }
  }
  /// Any count mutation funnels through this single invalidation point:
  /// the pair law (and transitively its alias table) rebuilds iff the
  /// counts generation moved since it was last built.
  void touch_counts() noexcept { ++counts_generation_; }
  /// Rebuilds the pair law if a count changed since the last build: O(k) for
  /// USD (kernels/pair_law.hpp).
  void refresh_law();
  /// Adaptive round length: min over the drift bounds, clamped to
  /// [1, budget] and options_.max_round. Requires a fresh law.
  Interactions choose_tau(Interactions budget) const;

  const Protocol& protocol_;
  TransitionTable table_;
  Configuration config_;
  Xoshiro256pp rng_;
  Options options_;
  Interactions fixed_round_ = 0;  ///< fixed-round length; 0 = adaptive
  Interactions interactions_ = 0;
  Interactions clamped_ = 0;
  Interactions last_round_size_ = 0;
  Recorder* recorder_ = nullptr;

  // The active-pair law, rebuilt when law_generation_ falls behind
  // counts_generation_ (kernels/pair_law.hpp owns the enumeration and the
  // lazily built alias table).
  kernels::PairLaw law_;
  std::uint64_t counts_generation_ = 1;
  std::uint64_t law_generation_ = 0;  ///< counts generation law_ was built at
  std::vector<std::int64_t> draws_;   ///< kernel scratch (multinomial output)
  std::vector<std::int64_t> involvement_;  ///< kernel scratch (block chain)
};

}  // namespace ppsim
