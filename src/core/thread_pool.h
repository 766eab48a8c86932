// Fixed-size worker pool over a BoundedTaskQueue (docs/CONCURRENCY.md).
// Workers are spawned once at construction and live until destruction —
// a query server keeps its threads warm instead of paying spawn latency
// per request. Submit applies queue backpressure; Drain is the batch
// barrier System::Serve uses between fan-out and the
// deterministic aggregation pass.

#ifndef EEB_CORE_THREAD_POOL_H_
#define EEB_CORE_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/task_queue.h"

namespace eeb::core {

/// Fixed pool of worker threads consuming a bounded MPMC queue.
class ThreadPool {
 public:
  /// Spawns `n_threads` workers (at least one). `queue_capacity` bounds the
  /// backlog of submitted-but-unstarted tasks; 0 picks 2 * n_threads, enough
  /// to keep every worker fed without unbounded buildup.
  explicit ThreadPool(size_t n_threads, size_t queue_capacity = 0);

  /// Closes the queue, drains remaining tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task, blocking while the queue is full. Returns false iff
  /// the pool is shutting down.
  bool Submit(BoundedTaskQueue::Task task) EEB_EXCLUDES(drain_mu_);

  /// Non-blocking admission (load shedding, docs/ROBUSTNESS.md): enqueues
  /// iff a queue slot is free right now; kFull otherwise. Drain accounting
  /// only counts accepted tasks, so a shed producer owes nothing.
  [[nodiscard]] PushOutcome TrySubmit(BoundedTaskQueue::Task task)
      EEB_EXCLUDES(drain_mu_);

  /// Bounded-wait admission: blocks up to `timeout_ms` for a queue slot;
  /// kTimedOut when the queue stayed full for the whole wait.
  [[nodiscard]] PushOutcome SubmitWithDeadline(BoundedTaskQueue::Task task,
                                               double timeout_ms)
      EEB_EXCLUDES(drain_mu_);

  /// Blocks until every task submitted so far has finished executing.
  void Drain() EEB_EXCLUDES(drain_mu_);

  size_t num_threads() const { return workers_.size(); }

  /// Live-telemetry gauges (obs/window.h): instantaneous backlog and the
  /// number of workers currently inside a task. Both are racy-by-nature
  /// point samples for monitoring, not synchronization.
  size_t queue_depth() const { return queue_.size(); }
  size_t queue_max_depth() const { return queue_.max_depth(); }
  size_t busy_workers() const {
    return busy_.load(std::memory_order_relaxed);
  }

  /// Full queue accounting (depth, high-water mark, pushed/popped/rejected
  /// totals); valid across the pool's whole lifetime, including after the
  /// queue closed. Published by System::SampleWorkerGauges.
  QueueStats queue_stats() const { return queue_.Stats(); }

 private:
  void WorkerLoop();

  BoundedTaskQueue queue_ EEB_UNGUARDED(
      "internally synchronized: the queue owns its own mutex/condvars");
  std::vector<std::thread> workers_ EEB_UNGUARDED(
      "spawned in the constructor, joined in the destructor; never touched "
      "while workers run");
  std::atomic<size_t> busy_{0};

  // Drain bookkeeping: tasks submitted vs. completed.
  Mutex drain_mu_;
  CondVar drain_cv_;  // signaled after a worker finishes a task
  uint64_t submitted_ EEB_GUARDED_BY(drain_mu_) = 0;
  uint64_t completed_ EEB_GUARDED_BY(drain_mu_) = 0;
};

}  // namespace eeb::core

#endif  // EEB_CORE_THREAD_POOL_H_
