#include "core/parallel.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace mantra::core::parallel {

namespace {

/// Which pool's worker the current thread is, and its index there.
struct CurrentWorker {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local CurrentWorker current_worker;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = std::max<std::size_t>(threads, 1);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

std::size_t ThreadPool::worker_index() const {
  return current_worker.pool == this ? current_worker.index : size();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

namespace {

/// Wait/run wall times are µs-to-ms scale, far below the collection-latency
/// buckets — give them their own bounds.
const std::vector<double>& pool_time_buckets_s() {
  static const std::vector<double> buckets = {
      1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
  };
  return buckets;
}

}  // namespace

void ThreadPool::set_telemetry(Telemetry* telemetry) {
  // Under the pool mutex so workers blocked in wait() observe the new sink
  // with a happens-before edge on their next dequeue.
  std::lock_guard<std::mutex> lock(mutex_);
  telemetry_ = telemetry;
  handles_ = Handles{};
  if (telemetry_->enabled()) {
    telemetry_->metrics()
        .gauge("mantra_pool_threads")
        .set(static_cast<double>(workers_.size()));
  }
}

std::size_t ThreadPool::take_queue_peak() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(queue_peak_, std::size_t{0});
}

void ThreadPool::enqueue(std::function<void()> task, Batch* batch) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry entry;
    entry.fn = std::move(task);
    entry.batch = batch;
    queue_peak_ = std::max(queue_peak_, queue_.size() + 1);
    if (telemetry_->enabled()) {
      entry.enqueued_us = telemetry_->tracer().wall_now_us();
      MetricsRegistry& metrics = telemetry_->metrics();
      cached(handles_.tasks, [&] {
        return &metrics.counter("mantra_pool_tasks_total");
      }).inc();
      cached(handles_.queue_depth, [&] {
        return &metrics.gauge("mantra_pool_queue_depth");
      }).set(static_cast<double>(queue_.size() + 1));
    }
    queue_.push_back(std::move(entry));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  current_worker = {this, index};
  for (;;) {
    Entry entry;
    Telemetry* telemetry;
    Handles handles;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      entry = std::move(queue_.front());
      queue_.pop_front();
      telemetry = telemetry_;
      if (telemetry->enabled()) {
        MetricsRegistry& metrics = telemetry->metrics();
        cached(handles_.queue_depth, [&] {
          return &metrics.gauge("mantra_pool_queue_depth");
        }).set(static_cast<double>(queue_.size()));
        // The run histogram is looked up here too, before the first task
        // runs, so every reader after the first join finds it.
        cached(handles_.wait, [&] {
          return &metrics.histogram("mantra_pool_task_wait_seconds", {},
                                    pool_time_buckets_s());
        });
        cached(handles_.busy, [&] { return &metrics.gauge("mantra_pool_busy_workers"); });
        cached(handles_.run, [&] {
          return &metrics.histogram("mantra_pool_task_run_seconds", {},
                                    pool_time_buckets_s());
        });
        handles = handles_;
      }
    }
    const bool timed = telemetry->enabled();
    std::int64_t start_us = 0;
    if (timed) {
      start_us = telemetry->tracer().wall_now_us();
      handles.wait->observe(static_cast<double>(start_us - entry.enqueued_us) / 1e6);
      handles.busy->add(1.0);
    }
    entry.fn();
    if (timed) {
      handles.busy->add(-1.0);
      handles.run->observe(
          static_cast<double>(telemetry->tracer().wall_now_us() - start_us) / 1e6);
    }
    // Only now, with the task's accounting done and its captures destroyed,
    // may its run_all return. Notify under the lock: the waiter destroys
    // the batch as soon as it sees 0.
    entry.fn = nullptr;
    std::lock_guard<std::mutex> lock(entry.batch->mutex);
    if (--entry.batch->remaining == 0) entry.batch->done.notify_one();
  }
}

void run_all(ThreadPool* pool, std::vector<std::function<void()>> tasks) {
  if (pool == nullptr || tasks.size() < 2) {
    for (auto& task : tasks) task();
    return;
  }

  ThreadPool::Batch batch;
  batch.remaining = tasks.size();
  for (auto& task : tasks) {
    pool->enqueue(
        [&batch, task = std::move(task)] {
          try {
            task();
          } catch (...) {
            std::lock_guard<std::mutex> lock(batch.mutex);
            if (!batch.first_error) batch.first_error = std::current_exception();
          }
        },
        &batch);
  }

  std::unique_lock<std::mutex> lock(batch.mutex);
  batch.done.wait(lock, [&batch] { return batch.remaining == 0; });
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace mantra::core::parallel
