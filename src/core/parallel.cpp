#include "core/parallel.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace mantra::core::parallel {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = std::max<std::size_t>(threads, 1);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
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

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry entry;
    entry.fn = std::move(task);
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

void ThreadPool::worker_loop() {
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
    if (!telemetry->enabled()) {
      entry.fn();
      continue;
    }
    const std::int64_t start_us = telemetry->tracer().wall_now_us();
    handles.wait->observe(static_cast<double>(start_us - entry.enqueued_us) / 1e6);
    handles.busy->add(1.0);
    entry.fn();
    handles.busy->add(-1.0);
    handles.run->observe(
        static_cast<double>(telemetry->tracer().wall_now_us() - start_us) / 1e6);
  }
}

void run_all(ThreadPool* pool, std::vector<std::function<void()>> tasks) {
  if (pool == nullptr || tasks.size() < 2) {
    for (auto& task : tasks) task();
    return;
  }

  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr first_error;
  } join;
  join.remaining = tasks.size();

  for (auto& task : tasks) {
    pool->submit([&join, task = std::move(task)] {
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(join.mutex);
      if (error && !join.first_error) join.first_error = error;
      if (--join.remaining == 0) join.done.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(join.mutex);
  join.done.wait(lock, [&join] { return join.remaining == 0; });
  if (join.first_error) std::rethrow_exception(join.first_error);
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace mantra::core::parallel
