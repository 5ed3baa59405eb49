// Tests for the discrete-event simulation kernel.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "atlarge/sim/simulation.hpp"

namespace sim = atlarge::sim;

TEST(Simulation, StartsAtZero) {
  sim::Simulation s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Simulation, EventsFireInTimeOrder) {
  sim::Simulation s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, TiesBreakInSchedulingOrder) {
  sim::Simulation s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(1.0, [&] { order.push_back(2); });
  s.schedule_at(1.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, ClockAdvancesToEventTime) {
  sim::Simulation s;
  double seen = -1.0;
  s.schedule_at(42.5, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 42.5);
  EXPECT_DOUBLE_EQ(s.now(), 42.5);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  sim::Simulation s;
  double second = -1.0;
  s.schedule_at(10.0, [&] {
    s.schedule_after(5.0, [&] { second = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(second, 15.0);
}

TEST(Simulation, SchedulingInPastClampsToNow) {
  sim::Simulation s;
  double seen = -1.0;
  s.schedule_at(10.0, [&] {
    s.schedule_at(5.0, [&] { seen = s.now(); });  // in the past
  });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);

  // -0.0 and NaN clamp to now() == +0.0 as well. Kept as they are, their
  // bit patterns would sort after every positive time.
  sim::Simulation z;
  std::vector<double> fired;  // now() at each event, in firing order
  const auto record = [&] {
    EXPECT_FALSE(std::signbit(z.now()));
    fired.push_back(z.now());
  };
  z.schedule_at(5.0, record);
  z.schedule_at(-0.0, record);
  z.schedule_at(std::numeric_limits<double>::quiet_NaN(), record);
  z.run();
  EXPECT_EQ(fired, (std::vector<double>{0.0, 0.0, 5.0}));
  EXPECT_FALSE(std::signbit(z.now()));
  EXPECT_EQ(z.now(), 5.0);
}

TEST(Simulation, NegativeDelayClampsToZero) {
  sim::Simulation s;
  double seen = -1.0;
  s.schedule_at(3.0, [&] {
    s.schedule_after(-2.0, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 3.0);
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  sim::Simulation s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(2.0, [&] { ++fired; });
  s.schedule_at(2.0001, [&] { ++fired; });
  const auto executed = s.run_until(2.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulation, RunUntilThenContinue) {
  sim::Simulation s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(5.0, [&] { ++fired; });
  s.run_until(3.0);
  EXPECT_EQ(fired, 1);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelPreventsExecution) {
  sim::Simulation s;
  int fired = 0;
  auto handle = s.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // second cancel is a no-op
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, HandleNotPendingAfterFire) {
  sim::Simulation s;
  auto handle = s.schedule_at(1.0, [] {});
  s.run();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulation, DefaultHandleIsInert) {
  sim::EventHandle handle;
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Simulation, StopInterruptsRun) {
  sim::Simulation s;
  int fired = 0;
  s.schedule_at(1.0, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  // A later run resumes.
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, StepExecutesExactlyOne) {
  sim::Simulation s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  sim::Simulation s;
  std::vector<double> times;
  s.schedule_at(1.0, [&] {
    times.push_back(s.now());
    s.schedule_after(1.0, [&] { times.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulation, PendingIsExactLiveCount) {
  sim::Simulation s;
  EXPECT_EQ(s.pending(), 0u);
  auto h1 = s.schedule_at(1.0, [] {});
  auto h2 = s.schedule_at(2.0, [] {});
  auto h3 = s.schedule_at(3.0, [] {});
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_TRUE(h2.cancel());
  EXPECT_EQ(s.pending(), 2u);  // cancelled tombstones are not counted
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  (void)h1;
  (void)h3;
}

TEST(Simulation, RunUntilIgnoresCancelledFrontTombstone) {
  // A cancelled event at the queue front must not let run_until execute a
  // live event beyond the boundary.
  sim::Simulation s;
  int fired = 0;
  auto early = s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(5.0, [&] { ++fired; });
  EXPECT_TRUE(early.cancel());
  EXPECT_EQ(s.run_until(3.0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelledHandleCannotResurrectReusedSlot) {
  sim::Simulation s;
  int first = 0;
  int second = 0;
  auto stale = s.schedule_at(1.0, [&] { ++first; });
  EXPECT_TRUE(stale.cancel());
  s.run();  // pops the tombstone and recycles its slot
  auto fresh = s.schedule_at(2.0, [&] { ++second; });
  EXPECT_FALSE(stale.pending());
  EXPECT_FALSE(stale.cancel());  // must not kill the event reusing the slot
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(Simulation, CompactedHandleCannotResurrectReusedSlot) {
  // The same contract when compaction, not a pop, recycles the slot: once
  // cancels leave the queue mostly tombstones, the cancel that crosses the
  // line frees every tombstone's slot without running the simulation.
  sim::Simulation s;
  s.reserve(128);
  int first = 0;
  int second = 0;
  auto stale = s.schedule_at(1.0, [&] { ++first; });
  std::vector<sim::EventHandle> doomed;
  for (int i = 0; i < 99; ++i)
    doomed.push_back(s.schedule_at(1.0, [&] { ++first; }));
  EXPECT_TRUE(stale.cancel());
  for (auto& handle : doomed) EXPECT_TRUE(handle.cancel());
  // Refill the recycled slots, stale's among them. Slots reused rather
  // than grown keep the pool inside the reserve.
  std::vector<sim::EventHandle> fresh;
  for (int i = 0; i < 100; ++i)
    fresh.push_back(s.schedule_at(2.0, [&] { ++second; }));
  EXPECT_EQ(s.alloc_events(), 0u);
  EXPECT_FALSE(stale.pending());
  EXPECT_FALSE(stale.cancel());  // must not kill the event reusing the slot
  for (const auto& handle : fresh) EXPECT_TRUE(handle.pending());
  s.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 100);
}

TEST(Simulation, PayloadDestructorMayCancelWhileQueueCompacts) {
  // Cancelling event i destroys its payload, whose destructor cancels
  // event i+1: a 100-deep chain of nested cancels. The compaction that
  // fires while those destructors unwind finds the outer slots still
  // mid-destroy; it must recycle them without destroying their payloads
  // a second time.
  struct CancelOnDestroy {
    sim::EventHandle* victim;
    int* destroyed;
    CancelOnDestroy(sim::EventHandle* v, int* d) : victim(v), destroyed(d) {}
    CancelOnDestroy(CancelOnDestroy&& other) noexcept
        : victim(other.victim), destroyed(other.destroyed) {
      other.destroyed = nullptr;  // moved-from: destroying it is silent
    }
    ~CancelOnDestroy() {
      if (destroyed == nullptr) return;
      ++*destroyed;
      if (victim != nullptr) victim->cancel();
    }
    void operator()() const {}
  };
  sim::Simulation s;
  std::vector<sim::EventHandle> handles(100);
  int destroyed = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    sim::EventHandle* victim =
        i + 1 < handles.size() ? &handles[i + 1] : nullptr;
    handles[i] = s.schedule_at(1.0, CancelOnDestroy(victim, &destroyed));
  }
  EXPECT_TRUE(handles[0].cancel());
  EXPECT_EQ(destroyed, 100);
  EXPECT_EQ(s.pending(), 0u);
  for (const auto& handle : handles) EXPECT_FALSE(handle.pending());
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(destroyed, 100);
}

TEST(Simulation, FiredHandleCannotCancelReusedSlot) {
  sim::Simulation s;
  int second = 0;
  auto stale = s.schedule_at(1.0, [] {});
  s.run();  // fires; the slot returns to the pool
  auto fresh = s.schedule_at(2.0, [&] { ++second; });
  EXPECT_FALSE(stale.cancel());
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_EQ(second, 1);
}

TEST(Simulation, SlotReusableWhileItsActionExecutes) {
  // step() recycles the firing event's slot before invoking its action, so
  // an event scheduled from inside the action may land in the same slot;
  // the running event's handle must not observe or cancel it.
  sim::Simulation s;
  sim::EventHandle outer;
  int inner_fired = 0;
  outer = s.schedule_at(1.0, [&] {
    auto inner = s.schedule_after(1.0, [&] { ++inner_fired; });
    EXPECT_FALSE(outer.pending());
    EXPECT_FALSE(outer.cancel());
    EXPECT_TRUE(inner.pending());
  });
  s.run();
  EXPECT_EQ(inner_fired, 1);
}

TEST(Simulation, CancellationStress) {
  // Schedule/cancel interleaving at scale: every event must either fire or
  // be cancelled exactly once, pending() must stay exact throughout, and
  // recycled slots must never resurrect stale handles.
  sim::Simulation s;
  std::size_t fired = 0;
  std::size_t cancelled = 0;
  std::size_t scheduled = 0;
  std::vector<sim::EventHandle> handles;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  for (int round = 0; round < 50'000; ++round) {
    const auto op = next() % 8;
    if (op < 5 || handles.empty()) {
      handles.push_back(s.schedule_after(
          static_cast<double>(next() % 97), [&fired] { ++fired; }));
      ++scheduled;
    } else if (op < 7) {
      if (handles[next() % handles.size()].cancel()) ++cancelled;
    } else {
      s.run_until(s.now() + static_cast<double>(next() % 13));
    }
    ASSERT_EQ(s.pending(), scheduled - fired - cancelled);
  }
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(fired + cancelled, scheduled);
  for (auto& h : handles) {
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());  // late cancels never double-count
  }
  EXPECT_EQ(fired + cancelled, scheduled);
}

TEST(Simulation, ManyEventsDeterministicCount) {
  sim::Simulation s;
  std::size_t fired = 0;
  for (int i = 0; i < 10'000; ++i)
    s.schedule_at(static_cast<double>(i % 100), [&] { ++fired; });
  EXPECT_EQ(s.run(), 10'000u);
  EXPECT_EQ(fired, 10'000u);
}

// Determinism property: identical runs produce identical event orders.
class SimDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(SimDeterminism, IdenticalTraces) {
  const auto run_once = [&] {
    sim::Simulation s;
    std::vector<double> trace;
    for (int i = 0; i < 50; ++i) {
      const double t = static_cast<double>((i * 7919 + GetParam()) % 97);
      s.schedule_at(t, [&trace, &s] { trace.push_back(s.now()); });
    }
    s.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism, ::testing::Values(0, 1, 2, 3));
