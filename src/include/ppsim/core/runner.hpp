// Multi-trial Monte-Carlo driver.
//
// Experiments in this library are functions (seed, trial_index) -> result.
// The runner derives independent per-trial seeds from one user-facing base
// seed (SplitMix64 stream), fans trials out over the work-stealing
// TaskScheduler (core/task_scheduler.hpp), and aggregates outcomes. Results
// are bitwise independent of the thread count: trial i always receives the
// same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "ppsim/core/engine.hpp"
#include "ppsim/core/types.hpp"
#include "ppsim/util/stats.hpp"

namespace ppsim {

/// Outcome of one Monte-Carlo trial of a consensus experiment.
struct TrialResult {
  bool stabilized = false;
  Interactions interactions = 0;   ///< attempted interactions
  Interactions clamped = 0;        ///< τ-leaping overdraw (see RunOutcome)
  double parallel_time = 0.0;
  std::optional<Opinion> winner;
};

/// Runs `engine` to stabilization (or budget) and packages the outcome —
/// the glue letting any EngineKind be driven from a sweep cell or a legacy
/// trial loop with identical accounting (attempted vs clamped interactions).
TrialResult run_engine_trial(Engine& engine, Interactions max_interactions);

/// Same, streaming through `recorder` (attached for the duration of the run,
/// finalized with the outcome afterwards). With recorder == nullptr this is
/// exactly the overload above, so benches can thread an optional archive
/// sink through one call site.
TrialResult run_engine_trial(Engine& engine, Interactions max_interactions,
                             Recorder* recorder);

using TrialFn = std::function<TrialResult(std::uint64_t seed, std::size_t trial)>;

/// Runs `num_trials` trials. `num_threads == 0` means use the hardware
/// concurrency (capped by the trial count). If a trial throws, trials not yet
/// started are skipped and the first exception is rethrown after the
/// in-flight ones finish.
std::vector<TrialResult> run_trials(const TrialFn& trial_fn, std::size_t num_trials,
                                    std::uint64_t base_seed, unsigned num_threads = 0);

/// Deterministic per-trial seed derivation (exposed for tests and for
/// reproducing a single trial from a recorded experiment).
std::uint64_t trial_seed(std::uint64_t base_seed, std::size_t trial);

/// Aggregate view over a batch of trials.
struct TrialAggregate {
  std::size_t trials = 0;
  std::size_t stabilized = 0;
  RunningStats parallel_time;                 ///< over stabilized trials only
  std::map<Opinion, std::size_t> wins;        ///< winner histogram
  std::size_t no_winner = 0;                  ///< stabilized without consensus

  double stabilized_fraction() const;
  /// Fraction of *all* trials won by `opinion`.
  double win_rate(Opinion opinion) const;
};

TrialAggregate aggregate(const std::vector<TrialResult>& results);

}  // namespace ppsim
