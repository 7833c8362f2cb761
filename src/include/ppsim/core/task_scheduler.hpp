// Work-stealing task scheduler: the only code in the library that runs
// Monte-Carlo trials on threads. SweepRunner fans (cell, trial) tasks out
// over it, and run_trials (core/runner.hpp) submits one task per trial.
//
// It runs *dynamic* work: adaptive trial stopping (--trials auto) submits new
// trial waves from inside completing tasks, and a grid mixing n=10^3 cells
// (microseconds) with n=10^11 collapsed cells (seconds) wants expensive cells
// started early and finished out of order instead of convoying behind the
// submission order. This scheduler provides:
//
//   * per-worker deques — the owner pushes and pops at the back (LIFO, cache
//     warm), thieves take from the front (FIFO, oldest first);
//   * steal-half — a thief migrates half of the victim's queue in one lock
//     acquisition, so imbalance decays geometrically instead of one task per
//     steal;
//   * idle backoff — a starved worker spins over randomized victims a bounded
//     number of rounds, then parks on a condition variable with a growing
//     timeout; every submission wakes parked workers.
//
// Tasks submitted from within a worker go to that worker's own deque (work
// stays local until stolen); external submissions round-robin across workers.
// wait_idle() blocks until every submitted task — including tasks submitted
// by running tasks — has finished.
//
// Determinism contract: the scheduler makes NO ordering promises. Callers
// that need schedule-independent results (SweepRunner's byte-identical JSON
// pin) must make every task write only its own pre-sized slot and must not
// branch on completion order. Tasks must not throw — wrap and capture.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <atomic>
#include <condition_variable>

namespace ppsim {

class TaskScheduler {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (at least 1). Workers live until destruction.
  explicit TaskScheduler(unsigned threads);

  /// Joins the workers. Pending tasks are still executed (drains the queues
  /// before exiting), so destroying a scheduler implies wait_idle().
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueues a task. Callable from any thread, including from inside a
  /// running task (the adaptive-stopping controller submits follow-up waves
  /// this way); worker-local submissions stay on the submitting worker's
  /// deque until stolen.
  void submit(Task task);

  /// Blocks until all submitted tasks (and the tasks they submitted) have
  /// completed. Must be called from outside the worker pool.
  void wait_idle();

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Executed/steal counters summed over workers; read them only while the
  /// scheduler is idle (wait_idle() returned, no concurrent submit).
  struct Stats {
    std::uint64_t executed = 0;      ///< tasks run to completion
    std::uint64_t steals = 0;        ///< successful steal operations
    std::uint64_t stolen_tasks = 0;  ///< tasks migrated by those steals
  };
  Stats stats() const;

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<Task> queue;  ///< owner: back; thieves: front
    std::uint64_t executed = 0;
    std::uint64_t steals = 0;
    std::uint64_t stolen_tasks = 0;
    /// Cheap per-worker xorshift state for randomized victim selection.
    std::uint64_t victim_rng = 0;
  };

  void worker_loop(std::size_t self);
  bool try_pop_own(std::size_t self, Task& task);
  bool try_steal(std::size_t self, Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::jthread> threads_;

  std::mutex park_mutex_;             ///< guards the two condition variables
  std::condition_variable work_cv_;   ///< starved workers park here
  std::condition_variable idle_cv_;   ///< wait_idle() parks here

  std::atomic<std::size_t> pending_{0};  ///< submitted but not yet finished
  std::atomic<std::size_t> round_robin_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace ppsim
