// Small work-stealing thread pool for the sharded mining engine.
//
// Each worker owns a deque: the owner pushes/pops at the back (LIFO, cache
// friendly), idle workers steal from the front of a victim's deque (FIFO,
// takes the oldest — usually largest — task).  The pool is deliberately
// minimal: tasks are type-erased void() callables, submission round-robins
// across worker deques, and parallel_for hands out indices through a shared
// atomic counter so callers get dynamic load balancing without choosing a
// chunk size.
//
// Contract: tasks must not throw — a throwing task calls std::terminate.
// Callers that can fail (e.g. the engine's shard tasks) catch inside the
// task and report through their own result slot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dnsnoise::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace dnsnoise::obs

namespace dnsnoise {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).  A non-null `metrics`
  /// registry (DESIGN.md §10) receives the engine.pool.* scheduler metrics:
  /// tasks submitted, steals, and the queue-depth high-water mark.
  explicit ThreadPool(std::size_t threads,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Drains nothing: pending tasks are completed before the workers exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return threads_.size(); }

  /// Stops the engine.pool.* metrics: later tasks run unmetered, so the
  /// metrics keep describing the stage the pool was metered for.  Call
  /// from the submitting thread while no parallel_for is in flight; the
  /// next submit's queue lock orders this write before any worker's read.
  void stop_metrics() noexcept {
    tasks_metric_ = nullptr;
    steals_metric_ = nullptr;
    queue_depth_max_ = nullptr;
  }

  /// Enqueues one task.  From a worker thread the task lands in that
  /// worker's own deque (LIFO); from outside it round-robins.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void wait_idle();

  /// Runs body(0..n-1) across the pool and returns when all calls are done.
  /// The calling thread participates, so the pool is never left idle while
  /// the caller blocks.  Indices are claimed dynamically (shared atomic).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> queue;
  };

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wait_mutex_;
  std::condition_variable work_cv_;  // wakes sleeping workers
  std::condition_variable idle_cv_;  // wakes wait_idle
  std::atomic<std::size_t> queued_{0};   // tasks sitting in deques
  std::atomic<std::size_t> pending_{0};  // tasks submitted but not finished
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stop_{false};
  obs::Counter* tasks_metric_ = nullptr;
  obs::Counter* steals_metric_ = nullptr;
  obs::Gauge* queue_depth_max_ = nullptr;

  void worker_loop(std::size_t index);
  bool try_pop(std::size_t index, std::function<void()>& task);
  void run_task(std::function<void()>& task);
};

}  // namespace dnsnoise
