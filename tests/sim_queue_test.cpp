// Property tests for the kernel's event queue and the batched dispatch
// path. The contract under test: events fire in exact (time, scheduling
// sequence) order on any schedule — ties at equal timestamps, cancelled
// tombstones (popped or compacted away), nested scheduling, and sparse
// far-future schedules included. The oracle is RefSim, a deliberately
// naive reference that keeps pending events in an ordered map; the
// kernel's 4-ary heap, packed records, slot recycling, and batching must
// reproduce its firing log byte for byte. Alongside it, the
// allocation-accounting contract: a reserve()-sized run touches the
// system allocator exactly zero times, observable both through
// Simulation::alloc_events() and the Observer::on_alloc_event mirror —
// cancel churn included, since tombstones are compacted before they
// outgrow the live set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/rng.hpp"

namespace {

using atlarge::sim::EventHandle;
using atlarge::sim::Simulation;

std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Trivially correct reference kernel: pending events in a std::map keyed
/// by (time, scheduling sequence), fired one at a time from the front.
/// Same schedule_at/schedule_after/now/run surface as Simulation, with
/// cancellable handles.
struct RefSim {
  using Key = std::pair<double, std::uint64_t>;

  struct Handle {
    RefSim* sim;
    Key key;
    bool cancel() const { return sim->queue.erase(key) > 0; }
  };

  std::map<Key, std::function<void()>> queue;
  double clock = 0.0;
  std::uint64_t next_seq = 0;

  double now() const { return clock; }
  std::size_t pending() const { return queue.size(); }

  Handle schedule_at(double at, std::function<void()> action) {
    const Key key{std::max(at, clock), next_seq++};
    queue.emplace(key, std::move(action));
    return {this, key};
  }
  Handle schedule_after(double delay, std::function<void()> action) {
    return schedule_at(clock + std::max(delay, 0.0), std::move(action));
  }

  void run() {
    while (!queue.empty()) {
      const auto front = queue.begin();
      clock = front->first.first;
      const std::function<void()> action = std::move(front->second);
      queue.erase(front);
      action();
    }
  }
};

/// One randomized schedule, fully determined by (seed, n): an initial wave
/// with heavy timestamp ties, a slice of immediate cancellations, a slice
/// of in-run cancellations (tombstones reclaimed while the queue drains),
/// and nested scheduling — some actions spawn a child at the current
/// timestamp, some in the near future. Returns the exact firing log.
template <class Sim>
std::string run_script(std::uint64_t seed, std::size_t n) {
  Sim sim;
  atlarge::stats::Rng rng(seed);
  std::string log;
  std::vector<decltype(sim.schedule_at(0.0, [] {}))> handles;
  handles.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    // Ten distinct timestamps across the wave: every batch is large.
    const double t = 0.5 * static_cast<double>(rng.uniform_int(0, 9));
    const double child_gap = rng.uniform() < 0.5 ? 0.0 : 0.25;
    const bool spawn_child = rng.uniform() < 0.3;
    handles.push_back(sim.schedule_at(t, [&log, &sim, i, spawn_child,
                                          child_gap] {
      log += std::to_string(i) + "@" + exact(sim.now()) + ";";
      if (spawn_child) {
        sim.schedule_after(child_gap, [&log, &sim, i] {
          log += 'c';
          log += std::to_string(i) + "@" + exact(sim.now()) + ";";
        });
      }
    }));
  }
  // Immediate cancellations: tombstones that sit in the queue from the
  // start.
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.15) handles[i].cancel();
  }
  // In-run cancellations: a canceller at t=0.75 (between the tied
  // timestamps) kills a random slice of still-pending events mid-drain.
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.2) victims.push_back(i);
  }
  sim.schedule_at(0.75, [&handles, &victims, &log] {
    for (const std::size_t i : victims) {
      if (!handles[i].cancel()) continue;
      log += 'x';
      log += std::to_string(i) + ";";
    }
  });
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  return log;
}

// The two "backends" are the kernel and the RefSim reference.
TEST(SimQueueProperty, BackendsProduceByteIdenticalOrderings) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t n : {17u, 200u, 1500u}) {
      const std::string kernel_log = run_script<Simulation>(seed, n);
      const std::string ref_log = run_script<RefSim>(seed, n);
      ASSERT_EQ(kernel_log, ref_log)
          << "kernel diverged from the reference at seed=" << seed
          << " n=" << n;
      ASSERT_FALSE(kernel_log.empty());
    }
  }
}

TEST(SimQueueProperty, TiesFireInScheduleOrder) {
  Simulation sim;
  std::string log;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(5.0, [&log, i] { log += std::to_string(i) + ";"; });
  }
  sim.run();
  std::string want;
  for (int i = 0; i < 100; ++i) want += std::to_string(i) + ";";
  EXPECT_EQ(log, want);
}

/// Keep-alive-shaped schedule, dominated by cancels: request chains for
/// a handful of entities, where every request cancels its entity's
/// expiry timer and re-arms it 5-30 s ahead (a serverless warm start).
/// Requests and timers share a 0.25 s grid, so equal-time batches mix
/// requests, expiries and cancels of records already pulled into the
/// batch, and tombstones outnumber live events by enough that the kernel
/// compacts its queue 52 times in a 4,000-request run (4 times in a
/// 300-request one).
template <class Sim>
std::string keepalive_script(std::uint64_t seed, std::size_t requests) {
  Sim sim;
  atlarge::stats::Rng rng(seed);
  std::string log;
  constexpr std::size_t kEntities = 6;
  std::vector<decltype(sim.schedule_at(0.0, [] {}))> timers;
  const auto grid = [&rng](int lo, int hi) {
    return 0.25 * static_cast<double>(rng.uniform_int(lo, hi));
  };
  const auto expire = [&log, &sim](std::size_t e) {
    return [&log, &sim, e] {
      log += 'e';
      log += std::to_string(e) + "@" + exact(sim.now()) + ";";
    };
  };
  std::size_t remaining = requests;
  std::function<void(std::size_t)> request = [&](std::size_t e) {
    log += 'r';
    log += std::to_string(e) + "@" + exact(sim.now()) + ";";
    if (timers[e].cancel()) {
      log += 'x';
      log += std::to_string(e) + ";";
    }
    timers[e] = sim.schedule_after(grid(20, 120), expire(e));
    if (remaining == 0) return;
    --remaining;
    sim.schedule_after(grid(0, 2), [&request, e] { request(e); });
  };
  for (std::size_t e = 0; e < kEntities; ++e) {
    timers.push_back(sim.schedule_at(grid(0, 8), expire(e)));
    sim.schedule_at(grid(0, 8), [&request, e] { request(e); });
  }
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  return log;
}

TEST(SimQueueProperty, KeepAliveCancelChurnMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const std::size_t requests : {300u, 4000u}) {
      const std::string kernel_log =
          keepalive_script<Simulation>(seed, requests);
      ASSERT_EQ(kernel_log, keepalive_script<RefSim>(seed, requests))
          << "kernel diverged from the reference at seed=" << seed
          << " requests=" << requests;
      ASSERT_NE(kernel_log.find('x'), std::string::npos);
    }
  }
}

/// Times spanning twelve orders of magnitude: the packed records compare
/// time by IEEE-754 bit pattern, which must order exactly like the
/// reference's double comparison across every exponent.
template <class Sim>
std::string sparse_far_future_script(std::uint64_t seed) {
  Sim sim;
  atlarge::stats::Rng rng(seed);
  std::string log;
  for (std::size_t i = 0; i < 300; ++i) {
    const double magnitude = static_cast<double>(rng.uniform_int(0, 12));
    const double t = rng.uniform() * std::pow(10.0, magnitude);
    sim.schedule_at(t, [&log, &sim, i] {
      log += std::to_string(i) + "@" + exact(sim.now()) + ";";
    });
  }
  sim.run();
  return log;
}

TEST(SimQueueProperty, SparseFarFutureSchedulesMatch) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(sparse_far_future_script<Simulation>(seed),
              sparse_far_future_script<RefSim>(seed))
        << "seed=" << seed;
  }
}

/// Alternating large waves and near-empty drains: the heap grows and
/// shrinks while slots recycle through the free list.
template <class Sim>
std::string churn_script() {
  Sim sim;
  atlarge::stats::Rng rng(99);
  std::string log;
  double base = 0.0;
  for (int wave = 0; wave < 4; ++wave) {
    const std::size_t count = wave % 2 == 0 ? 2000 : 30;
    for (std::size_t i = 0; i < count; ++i) {
      const double t = base + rng.uniform() * 50.0;
      sim.schedule_at(t, [&log, &sim, i] {
        log += std::to_string(i) + "@" + exact(sim.now()) + ";";
      });
    }
    sim.run();
    base += 100.0;
  }
  return log;
}

TEST(SimQueueProperty, GrowShrinkChurnMatchesHeap) {
  EXPECT_EQ(churn_script<Simulation>(), churn_script<RefSim>());
}

// ------------------------------------------------ batched dispatch edges --

TEST(SimQueueBatch, StopMidBatchPreservesRemainderAndOrder) {
  Simulation sim;
  std::string log;
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(1.0, [&log, &sim, i] {
      log += std::to_string(i) + ";";
      if (i == 2) sim.stop();
    });
  }
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(log, "0;1;2;");
  EXPECT_EQ(sim.pending(), 3u);
  // Resuming drains the rest of the interrupted batch in the original
  // order at the same timestamp.
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(log, "0;1;2;3;4;5;");
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(SimQueueBatch, CancelInsideBatchPreventsLaterEqualTimeFire) {
  Simulation sim;
  std::string log;
  EventHandle last;
  sim.schedule_at(1.0, [&log, &last] {
    log += "a;";
    EXPECT_TRUE(last.cancel());
  });
  sim.schedule_at(1.0, [&log] { log += "b;"; });
  last = sim.schedule_at(1.0, [&log] { log += "victim;"; });
  sim.run();
  EXPECT_EQ(log, "a;b;");
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimQueueBatch, SameTimeChildFiresAtSameTimestampAfterBatch) {
  Simulation sim;
  std::string log;
  sim.schedule_at(2.0, [&log, &sim] {
    log += "parent;";
    sim.schedule_at(2.0, [&log, &sim] {
      log += "child@" + exact(sim.now()) + ";";
    });
  });
  sim.schedule_at(2.0, [&log] { log += "sibling;"; });
  sim.run();
  // The child carries a larger sequence number: it fires after every
  // event of the original batch, still at t=2.
  EXPECT_EQ(log, "parent;sibling;child@2;");
}

// --------------------------------------------------- allocation tracking --

/// Self-rescheduling ticker: the steady-state shape domain simulators
/// settle into (constant pending population, constant churn).
struct Ticker {
  Simulation* sim;
  std::uint64_t* remaining;
  double period;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    sim->schedule_after(period, *this);
  }
};

TEST(SimQueueAlloc, ReservedHeapSteadyStateIsAllocationFree) {
  // The kernel is exactly zero-alloc from the first event: reserve()
  // pre-sizes every structure the run can touch.
  Simulation sim;
  sim.reserve(512);
  std::uint64_t remaining = 5000;
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(0.01 * static_cast<double>(i),
                    Ticker{&sim, &remaining, 1.0 + 0.001 * i});
  }
  sim.run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sim.alloc_events(), 0u)
      << "a pre-sized steady-state run touched the system allocator";
}

/// Keep-alive re-arming: every tick cancels one of `timers` and re-arms
/// it a minute ahead, so at the 10 ms tick period each cancelled record
/// would otherwise linger in the queue for 6,000 ticks.
struct Rearmer {
  Simulation* sim;
  std::vector<EventHandle>* timers;
  std::uint64_t* remaining;
  std::uint64_t* cancelled;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    EventHandle& timer = (*timers)[*remaining % timers->size()];
    if (timer.cancel()) ++*cancelled;
    timer = sim->schedule_after(60.0, [] {});
    sim->schedule_after(0.01, *this);
  }
};

TEST(SimQueueAlloc, CancelChurnStaysWithinReserve) {
  // At most N/4 live events, far more than N cancels: tombstones are
  // compacted away before they outgrow the live set, so the queue and slot
  // pool never leave the reserve.
  constexpr std::size_t kReserve = 512;
  Simulation sim;
  sim.reserve(kReserve);
  std::vector<EventHandle> timers(kReserve / 4 - 1);
  for (EventHandle& timer : timers) timer = sim.schedule_after(60.0, [] {});
  std::uint64_t remaining = 100 * kReserve;
  std::uint64_t cancelled = 0;
  sim.schedule_at(0.0, Rearmer{&sim, &timers, &remaining, &cancelled});
  sim.run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(cancelled, 100 * kReserve);
  EXPECT_EQ(sim.alloc_events(), 0u)
      << "cancelled timers grew the queue past the reserve";
}

TEST(SimQueueAlloc, ObserverMirrorsAllocEvents) {
  struct CountingObserver final : atlarge::sim::Observer {
    std::uint64_t allocs = 0;
    void on_alloc_event() override { ++allocs; }
  };
  Simulation sim;
  CountingObserver obs;
  sim.set_observer(&obs);
  // No reserve: growth must be visible through both channels, in sync.
  for (int i = 0; i < 2000; ++i) {
    sim.schedule_at(static_cast<double>(i % 50), [] {});
  }
  sim.run();
  EXPECT_GT(sim.alloc_events(), 0u);
  EXPECT_EQ(sim.alloc_events(), obs.allocs);
}

TEST(SimQueueAlloc, OversizePayloadsAllocateOnlyWhenUnreserved) {
  // A payload above the inline block takes an arena size-class block;
  // reserve()'s payload_bytes argument pre-funds those chunks too.
  struct Big {
    double data[20];  // 160 bytes: size class 256
  };
  Simulation sim;
  sim.reserve(64, 64 * sizeof(Big) * 2);
  for (int i = 0; i < 32; ++i) {
    Big big{};
    big.data[0] = static_cast<double>(i);
    sim.schedule_at(1.0, [big] {
      volatile double sink = big.data[0];
      (void)sink;
    });
  }
  sim.run();
  EXPECT_EQ(sim.alloc_events(), 0u);
}

}  // namespace
