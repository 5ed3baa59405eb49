#pragma once
// A small fixed-size worker pool for CPU-bound fan-out inside the
// simulation ecosystem — most prominently the portfolio scheduler's
// what-if evaluations, which are independent simulations on private
// snapshots (paper Section 6.6: the portfolio is only usable online if
// those simulations are fast).
//
// Design notes:
//  * Deliberately minimal: a mutex-protected FIFO of std::function jobs
//    and a condition variable. The jobs the ecosystem submits are whole
//    nested simulations (milliseconds to seconds), so queue overhead is
//    irrelevant and lock-free machinery would be unearned complexity.
//  * parallel_for hands out indices through an atomic counter and the
//    *calling* thread participates as a worker, so a pool of size N uses
//    N threads total (N-1 workers + caller), and a pool of size 1 runs
//    the loop inline with zero synchronization.
//  * Determinism is the callers' contract, not the pool's: callers must
//    write results into per-index slots and draw randomness from
//    per-index streams, then reduce in index order after the join.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace atlarge::sim {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread is the Nth worker in
  /// parallel_for). `threads` <= 1 means no workers: everything runs
  /// inline on the caller.
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains nothing: joins workers after finishing jobs already dequeued;
  /// queued-but-unstarted jobs are discarded.
  ~ThreadPool();

  /// Total parallelism of parallel_for (workers + calling thread).
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Number of dedicated worker threads (size() - 1; 0 for a size-1 pool).
  /// Valid `run_on` indices are [0, worker_count()).
  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Enqueues a job for a worker thread. With a pool of size 1 the job
  /// runs inline immediately.
  void submit(std::function<void()> job);

  /// Enqueues a job pinned to worker `worker_index`: it runs on that
  /// worker's thread, after any pinned jobs already queued there, and
  /// before the worker takes more shared `submit` work. This is the
  /// LP->worker affinity primitive for sharded simulation: pinning every
  /// window of one logical process to the same worker keeps its queue and
  /// arena hot in that core's cache, and guarantees two jobs pinned to the
  /// same index never run concurrently (a per-worker FIFO).
  ///
  /// `worker_index` is reduced modulo worker_count(); with no workers
  /// (size-1 pool) the job runs inline immediately, preserving the
  /// sequential-FIFO guarantee trivially.
  void run_on(std::size_t worker_index, std::function<void()> job);

  /// Blocks until every submitted and pinned job has finished.
  void wait_idle();

  /// Runs fn(i) for every i in [0, n), spread across the pool; the calling
  /// thread participates. Blocks until all n invocations returned. fn must
  /// be safe to invoke concurrently from distinct threads. If fn throws,
  /// no lane claims another index; once every lane has stopped, the first
  /// exception caught is rethrown on the calling thread.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> jobs_;
  // One FIFO per worker for run_on; only worker i pops pinned_[i].
  std::vector<std::deque<std::function<void()>>> pinned_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: "a job or stop arrived"
  std::condition_variable idle_cv_;  // wait_idle: "everything finished"
  std::size_t in_flight_ = 0;        // dequeued but not yet finished
  std::size_t pinned_pending_ = 0;   // queued in pinned_, not yet dequeued
  bool stop_ = false;
};

}  // namespace atlarge::sim
