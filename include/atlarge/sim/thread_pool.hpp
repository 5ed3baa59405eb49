#pragma once
// A small fixed-size pool with one fork-join primitive, run_lanes, behind
// every CPU-bound fan-out in the simulation ecosystem: the portfolio
// scheduler's what-if evaluations (paper Section 6.6: the portfolio is
// only usable online if those simulations are fast), the campaign
// runner's trials, the Graphalytics kernels' vertex blocks, and the
// sharded simulation's lookahead windows.
//
// Design notes:
//  * One primitive. run_lanes(fn) runs fn(lane) once for every lane in
//    [0, size()) and returns when all of them have. parallel_for is
//    run_lanes plus an atomic index; sharded windows call run_lanes
//    directly. There is no job queue: a call publishes one function and
//    bumps a generation counter that the workers wait on, and the caller
//    waits on a pending-worker count. Both waits are C++20 std::atomic
//    wait/notify, which spins briefly and then parks the thread, so an
//    idle pool burns no CPU.
//  * Lane L always runs on the same thread: lane 0 on the caller, lane L
//    on worker L-1. A caller that keeps per-lane state (the sharded
//    simulation's LP queues and arenas) keeps it hot in one core's cache
//    across calls.
//  * A lane that throws does not stop the others. Once every lane has
//    returned, the exception of the lowest-numbered lane that threw is
//    rethrown on the caller, whichever lane threw first. The pool stays
//    usable.
//  * One call at a time per pool: run_lanes and parallel_for must not be
//    called concurrently on one pool, nor from inside one of its lanes.
//    Every caller owns its pool (one per kernel call, portfolio, trial
//    batch or sharded simulation), so none shares or nests one.
//  * A pool of size 1 has no workers and runs lane 0 inline on the
//    caller with zero synchronization.
//  * Determinism is the callers' contract, not the pool's: callers must
//    write results into per-index (or per-lane) slots and draw randomness
//    from per-index streams, then reduce in index order after the join.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace atlarge::sim {

class ThreadPool {
 public:
  /// Upper bound on `threads`. Thread counts come from campaign specs and
  /// command-line flags; this cap turns a typo such as `--threads=-1`
  /// (2^64 - 1 once parsed unsigned) into an error instead of an attempt
  /// to start that many OS threads.
  static constexpr std::size_t kMaxThreads = 256;

  /// Starts `threads - 1` workers; the calling thread is lane 0 of every
  /// call. `threads` <= 1 means no workers: everything runs inline on the
  /// caller. Throws std::invalid_argument, before starting any worker,
  /// when `threads` exceeds kMaxThreads.
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Wakes and joins the workers. Must not race a call in progress.
  ~ThreadPool() { join_workers(); }

  /// Number of lanes: the workers plus the calling thread.
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs fn(lane) once for every lane in [0, size()), lane 0 on the
  /// calling thread and lane L on worker L-1, and blocks until every lane
  /// has returned. fn must be safe to invoke concurrently from distinct
  /// threads. If lanes throw, the exception of the lowest-numbered one is
  /// rethrown after the join.
  void run_lanes(const std::function<void(std::size_t)>& fn);

  /// Runs fn(i) for every i in [0, n), spread across the lanes, and blocks
  /// until all n invocations returned. fn must be safe to invoke
  /// concurrently from distinct threads. If fn throws, no lane claims
  /// another index, and once every lane has stopped the lowest lane's
  /// exception is rethrown on the calling thread.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t lane);
  void join_workers() noexcept;

  // The current call's function; null in a generation means "exit".
  // Written by the caller before the generation bump, read by workers
  // after they observe it.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::vector<std::exception_ptr> errors_;  // per lane, read after the join
  std::atomic<std::uint32_t> generation_{0};  // bumped once per call
  std::atomic<std::uint32_t> pending_{0};     // workers still in the call
  std::vector<std::thread> workers_;  // last: they use every member above
};

}  // namespace atlarge::sim
