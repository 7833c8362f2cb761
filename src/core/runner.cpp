#include "ppsim/core/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "ppsim/core/task_scheduler.hpp"
#include "ppsim/util/check.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim {

TrialResult run_engine_trial(Engine& engine, Interactions max_interactions) {
  return run_engine_trial(engine, max_interactions, nullptr);
}

TrialResult run_engine_trial(Engine& engine, Interactions max_interactions,
                             Recorder* recorder) {
  if (recorder != nullptr) engine.set_recorder(recorder);
  const RunOutcome out = engine.run_until_stable(max_interactions);
  if (recorder != nullptr) {
    recorder->finalize(engine.configuration(),
                       RecordFinish{.stabilized = out.stabilized,
                                    .interactions = out.interactions,
                                    .clamped = out.clamped,
                                    .consensus = out.consensus});
    engine.set_recorder(nullptr);
  }
  TrialResult r;
  r.stabilized = out.stabilized;
  r.interactions = out.interactions;
  r.clamped = out.clamped;
  r.parallel_time = engine.parallel_time();
  r.winner = out.consensus;
  return r;
}

std::uint64_t trial_seed(std::uint64_t base_seed, std::size_t trial) {
  // SplitMix64 is an injective mixing of the counter, so distinct trials get
  // distinct, well-scrambled seeds from one base seed.
  SplitMix64 sm(base_seed);
  std::uint64_t seed = 0;
  for (std::size_t i = 0; i <= trial; ++i) seed = sm.next();
  return seed;
}

std::vector<TrialResult> run_trials(const TrialFn& trial_fn, std::size_t num_trials,
                                    std::uint64_t base_seed, unsigned num_threads) {
  PPSIM_CHECK(static_cast<bool>(trial_fn), "trial function must be callable");
  std::vector<TrialResult> results(num_trials);
  if (num_trials == 0) return results;

  // Precompute seeds sequentially (the stream is cheap); workers then only
  // read their own slots.
  std::vector<std::uint64_t> seeds(num_trials);
  {
    SplitMix64 sm(base_seed);
    for (auto& s : seeds) s = sm.next();
  }

  unsigned threads = num_threads == 0 ? std::thread::hardware_concurrency() : num_threads;
  threads = std::max(1u, std::min<unsigned>(threads, narrow_cast<unsigned>(num_trials)));

  // One scheduler task per trial, each writing only its own slot. Tasks must
  // not throw: the first exception is captured, later trials are not
  // started, and it is rethrown once the scheduler has drained.
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<bool> failed{false};
  TaskScheduler scheduler(threads);
  for (std::size_t i = 0; i < num_trials; ++i) {
    scheduler.submit([&, i] {
      if (failed.load(std::memory_order_acquire)) return;
      try {
        results[i] = trial_fn(seeds[i], i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    });
  }
  scheduler.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

double TrialAggregate::stabilized_fraction() const {
  return trials == 0 ? 0.0
                     : static_cast<double>(stabilized) / static_cast<double>(trials);
}

double TrialAggregate::win_rate(Opinion opinion) const {
  if (trials == 0) return 0.0;
  const auto it = wins.find(opinion);
  const std::size_t w = it == wins.end() ? 0 : it->second;
  return static_cast<double>(w) / static_cast<double>(trials);
}

TrialAggregate aggregate(const std::vector<TrialResult>& results) {
  TrialAggregate agg;
  agg.trials = results.size();
  for (const auto& r : results) {
    if (!r.stabilized) continue;
    ++agg.stabilized;
    agg.parallel_time.add(r.parallel_time);
    if (r.winner.has_value()) {
      ++agg.wins[*r.winner];
    } else {
      ++agg.no_winner;
    }
  }
  return agg;
}

}  // namespace ppsim
