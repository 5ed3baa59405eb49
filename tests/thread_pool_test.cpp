// Tests for the worker pool behind the portfolio scheduler's parallel
// what-if evaluation. The ThreadSanitizer CI job runs this binary to
// certify the pool's synchronization.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "atlarge/sim/thread_pool.hpp"

namespace sim = atlarge::sim;

TEST(ThreadPool, SizeCountsTheCallingThread) {
  EXPECT_EQ(sim::ThreadPool(1).size(), 1u);
  EXPECT_EQ(sim::ThreadPool(4).size(), 4u);
  EXPECT_EQ(sim::ThreadPool(0).size(), 1u);  // clamped: caller always works
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  sim::ThreadPool pool(4);
  constexpr std::size_t kN = 1'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForRethrowsOnCaller) {
  sim::ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  // n == pool size and no fn(i) passes the rendezvous before all four have
  // started, so each lane runs exactly one index. One of them throws: first
  // on a worker lane, then on the calling thread's own lane.
  for (const bool on_caller : {false, true}) {
    SCOPED_TRACE(on_caller ? "caller lane throws" : "worker lane throws");
    std::atomic<int> started{0};
    std::atomic<int> returned{0};
    std::atomic<bool> thrown{false};
    const auto fn = [&](std::size_t) {
      started.fetch_add(1);
      while (started.load() < 4) std::this_thread::yield();
      const bool mine = std::this_thread::get_id() == caller;
      if (mine == on_caller && !thrown.exchange(true))
        throw std::runtime_error("lane");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      returned.fetch_add(1);
    };
    EXPECT_THROW(pool.parallel_for(4, fn), std::runtime_error);
    // Every other lane finished before the exception reached the caller.
    EXPECT_EQ(returned.load(), 3);
  }
  // The pool survives: a second loop visits every index exactly once.
  std::vector<std::atomic<int>> hits(1'000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForRunsInlineOnSizeOnePool) {
  sim::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  pool.parallel_for(64, [&](std::size_t) { ids.insert(caller); });
  // With no workers everything runs on the caller, so no synchronization
  // (and no data race on the un-mutexed set) is needed.
  EXPECT_EQ(ids.size(), 1u);
}

TEST(ThreadPool, ParallelForZeroIsANoop) {
  sim::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForWithFewerItemsThanThreads) {
  sim::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  sim::ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, RepeatedParallelForRounds) {
  // Churn for the ThreadSanitizer job: many rounds over one pool, with
  // writes to distinct slots per round (the portfolio's usage pattern).
  sim::ThreadPool pool(4);
  std::vector<double> out(128, 0.0);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] += 1.0; });
  }
  for (const double v : out) EXPECT_DOUBLE_EQ(v, 200.0);
}

TEST(ThreadPool, DestructionJoinsCleanly) {
  std::atomic<int> done{0};
  {
    sim::ThreadPool pool(4);
    pool.parallel_for(32, [&](std::size_t) { done.fetch_add(1); });
  }  // destructor joins workers
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, RunOnPinsJobsToOneWorkerThread) {
  sim::ThreadPool pool(4);
  ASSERT_EQ(pool.worker_count(), 3u);
  std::vector<std::vector<std::thread::id>> seen(pool.worker_count());
  for (int round = 0; round < 50; ++round) {
    for (std::size_t w = 0; w < pool.worker_count(); ++w) {
      // seen[w] is written only by worker w (that is the property under
      // test), so no synchronization beyond wait_idle is needed.
      pool.run_on(w, [&seen, w] { seen[w].push_back(std::this_thread::get_id()); });
    }
  }
  pool.wait_idle();
  std::set<std::thread::id> distinct;
  for (std::size_t w = 0; w < seen.size(); ++w) {
    ASSERT_EQ(seen[w].size(), 50u) << w;
    for (const auto& id : seen[w]) EXPECT_EQ(id, seen[w].front()) << w;
    EXPECT_NE(seen[w].front(), std::this_thread::get_id()) << w;
    distinct.insert(seen[w].front());
  }
  EXPECT_EQ(distinct.size(), seen.size());  // one thread per worker index
}

TEST(ThreadPool, RunOnIsFifoPerWorker) {
  sim::ThreadPool pool(2);
  std::vector<int> order;
  for (int i = 0; i < 200; ++i)
    pool.run_on(0, [&order, i] { order.push_back(i); });
  pool.wait_idle();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, RunOnRunsInlineWithoutWorkers) {
  sim::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran;
  pool.run_on(0, [&] { ran = std::this_thread::get_id(); });
  EXPECT_EQ(ran, caller);
}

TEST(ThreadPool, RunOnReducesIndexModuloWorkerCount) {
  sim::ThreadPool pool(3);  // workers 0 and 1
  std::atomic<int> done{0};
  pool.run_on(7, [&] { done.fetch_add(1); });  // 7 % 2 == 1
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPool, RunOnMixesWithSubmitAndParallelFor) {
  sim::ThreadPool pool(4);
  std::atomic<int> pinned{0};
  std::atomic<int> shared{0};
  for (int i = 0; i < 64; ++i) {
    pool.run_on(static_cast<std::size_t>(i), [&] { pinned.fetch_add(1); });
    pool.submit([&] { shared.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(pinned.load(), 64);
  EXPECT_EQ(shared.load(), 64);
  pool.parallel_for(32, [&](std::size_t) { shared.fetch_add(1); });
  EXPECT_EQ(shared.load(), 96);
}
