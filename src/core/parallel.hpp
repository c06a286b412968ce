// Minimal fixed-size worker pool for fanning independent per-target work
// out across threads (core/mantra's parallel collection cycle, §V's
// concurrent multi-router collection).
//
// The pool is deliberately small: its one entry point, run_all(), is the
// structured-join primitive the monitoring cycle uses — it runs a batch to
// completion (on the pool when one is given, inline otherwise) and only
// then returns, so callers keep the simulator's deterministic
// run-to-completion semantics. Tasks must not touch shared mutable state;
// the pool provides no synchronisation beyond the final join. A task may
// keep per-worker state indexed by worker_index(): no two tasks run on one
// worker at once.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/telemetry.hpp"

namespace mantra::core::parallel {

class ThreadPool {
 public:
  /// Spawns `threads` workers (floored at 1).
  explicit ThreadPool(std::size_t threads);
  /// Drains nothing: pending tasks that never ran are dropped; tasks
  /// already running are joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// The calling thread's index among this pool's workers, in [0, size());
  /// size() on any other thread (a run_all caller, another pool's worker).
  [[nodiscard]] std::size_t worker_index() const;

  /// Attaches a telemetry sink recording queue depth, task throughput,
  /// per-task wall wait/run times and worker occupancy, and drops the
  /// cached metric handles. Taken under the pool mutex so workers observe
  /// it on their next dequeue. Never pass null — use Telemetry::noop() to
  /// detach.
  void set_telemetry(Telemetry* telemetry);

  /// The deepest the queue has been since the last call (then resets to 0).
  /// The instantaneous `mantra_pool_queue_depth` gauge is almost always 0
  /// when read between cycles (the cycle joins before returning); the peak
  /// is what the per-cycle self-telemetry sample records.
  [[nodiscard]] std::size_t take_queue_peak();

 private:
  friend void run_all(ThreadPool* pool, std::vector<std::function<void()>> tasks);

  /// One run_all batch's join: the tasks not yet accounted for and the
  /// first error one of them threw.
  struct Batch {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::exception_ptr first_error;
  };
  struct Entry {
    std::function<void()> fn;
    Batch* batch = nullptr;        ///< released after the task's accounting
    std::int64_t enqueued_us = 0;  ///< tracer wall clock at enqueue (0 = off)
  };
  /// Metric handles, shared by the workers and so read and filled only
  /// under `mutex_`: the enqueue-side ones on the first enqueue, the
  /// worker-side ones on the first dequeue. A worker copies them out with
  /// its task.
  struct Handles {
    Counter* tasks = nullptr;
    Gauge* queue_depth = nullptr;
    Histogram* wait = nullptr;
    Gauge* busy = nullptr;
    Histogram* run = nullptr;
  };

  void enqueue(std::function<void()> task, Batch* batch);
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::deque<Entry> queue_;
  std::size_t queue_peak_ = 0;  ///< deepest queue since take_queue_peak()
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  Telemetry* telemetry_ = &Telemetry::noop();
  Handles handles_;
};

/// Runs every task to completion and returns only when all have finished,
/// including each pooled task's wait/run/busy accounting, so a caller's
/// post-join read of the pool metrics sees the whole batch. With a null
/// pool (or fewer than two tasks) the tasks run inline, in order, on the
/// calling thread — the sequential reference path. The first exception any
/// task throws is rethrown to the caller after the join (the remaining
/// tasks still run to completion).
void run_all(ThreadPool* pool, std::vector<std::function<void()>> tasks);

/// std::thread::hardware_concurrency with a floor of 1.
[[nodiscard]] std::size_t hardware_threads();

}  // namespace mantra::core::parallel
