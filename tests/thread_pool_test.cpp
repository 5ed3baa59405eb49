// Tests for the fork-join pool behind the portfolio's what-if evaluation,
// the campaign runner, the graph kernels and the sharded windows. The
// ThreadSanitizer CI job runs this binary to certify the pool's
// synchronization.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
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

TEST(ThreadPool, RunLanesPinsEachLaneToOneThread) {
  sim::ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::vector<std::thread::id>> seen(pool.size());
  for (int call = 0; call < 50; ++call) {
    // seen[lane] is written only by that lane's thread, and each call
    // joins every lane before returning.
    pool.run_lanes([&seen](std::size_t lane) {
      seen[lane].push_back(std::this_thread::get_id());
    });
  }
  std::set<std::thread::id> distinct;
  for (std::size_t lane = 0; lane < seen.size(); ++lane) {
    ASSERT_EQ(seen[lane].size(), 50u) << lane;
    for (const auto& id : seen[lane]) EXPECT_EQ(id, seen[lane].front()) << lane;
    distinct.insert(seen[lane].front());
  }
  EXPECT_EQ(seen[0].front(), std::this_thread::get_id());  // lane 0: caller
  EXPECT_EQ(distinct.size(), seen.size());  // one thread per lane
}

TEST(ThreadPool, RunLanesRethrowsTheLowestThrowingLaneAfterTheJoin) {
  sim::ThreadPool pool(4);
  // Lane 3 throws at once; lanes 1 and 2 first sleep, then lane 1 returns
  // and lane 2 throws. The caller must get lane 2's exception, the lowest
  // lane's rather than the first thrown, and only after lane 1 returned.
  std::atomic<int> returned{0};
  const auto fn = [&](std::size_t lane) {
    if (lane == 1 || lane == 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (lane >= 2) throw std::runtime_error("lane" + std::to_string(lane));
    returned.fetch_add(1);
  };
  try {
    pool.run_lanes(fn);
    ADD_FAILURE() << "expected lane 2's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane2");
    EXPECT_EQ(returned.load(), 2);  // lanes 0 and 1
  }
  // The pool serves the next call, and the old exceptions are gone.
  std::vector<int> hits(pool.size(), 0);
  pool.run_lanes([&hits](std::size_t lane) { ++hits[lane]; });
  EXPECT_EQ(hits, std::vector<int>(pool.size(), 1));
}

TEST(ThreadPool, RunLanesRunsLaneZeroInlineOnSizeOnePool) {
  sim::ThreadPool pool(1);
  std::vector<std::size_t> lanes;
  std::thread::id ran;
  pool.run_lanes([&](std::size_t lane) {
    lanes.push_back(lane);
    ran = std::this_thread::get_id();
  });
  EXPECT_EQ(lanes, std::vector<std::size_t>{0});
  EXPECT_EQ(ran, std::this_thread::get_id());
}

TEST(ThreadPool, ThreadCountsAboveTheCapThrowBeforeStartingWorkers) {
  // Neither construction gets as far as starting a thread.
  EXPECT_THROW(sim::ThreadPool(sim::ThreadPool::kMaxThreads + 1),
               std::invalid_argument);
  EXPECT_THROW(sim::ThreadPool(SIZE_MAX), std::invalid_argument);
}
