// Property tests for the sharded parallel DES (sim/sharded.hpp) and the
// two sharded engines (mmog::simulate_zones, p2p::simulate_swarm_network).
// The contracts under test, per DESIGN.md section 12:
//  * per-LP event orderings are byte-identical across thread counts for a
//    fixed shard count (conservative windows + sorted mailbox delivery);
//  * engine results are invariant across the whole shards x threads
//    matrix, including tie timestamps, zero lookahead, and active fault
//    plans (strict-past reads + order-independent aggregates);
//  * the fault plane keeps its chaos properties (null-plan identity,
//    replay identity) under sharding.
// The ThreadSanitizer CI job runs this binary to certify the window
// barrier and mailbox synchronization.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "atlarge/fault/fault.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/p2p/swarmnet.hpp"
#include "atlarge/sim/sharded.hpp"
#include "chaos_util.hpp"
#include "golden_util.hpp"

namespace sim = atlarge::sim;
namespace mmog = atlarge::mmog;
namespace p2p = atlarge::p2p;
namespace fault = atlarge::fault;
namespace chaos = atlarge::chaos;

namespace {

/// Per-LP execution log: "time/tag" per event, written only by the lane
/// executing the LP.
using Logs = std::vector<std::vector<std::string>>;

std::string entry(double t, int tag) {
  return chaos::exact(t) + "/" + std::to_string(tag);
}

/// A two-LP ping-pong over the mailbox plus local chatter: LP 0 and LP 1
/// each run a local event chain and volley a message back and forth with
/// delay `lookahead`. Returns the per-LP logs.
Logs ping_pong(std::size_t threads, double lookahead, double horizon) {
  sim::ShardOptions options;
  options.shards = 2;
  options.threads = threads;
  options.lookahead = lookahead;
  sim::ShardedSimulation net(options);
  Logs logs(2);

  // Local chains: every 1.0s on LP 0, every 0.7s on LP 1. `tick` outlives
  // run_until, so events may capture it by reference.
  std::function<void(std::size_t)> tick = [&net, &logs, horizon,
                                           &tick](std::size_t lp) {
    const double step = lp == 0 ? 1.0 : 0.7;
    const double now = net.lp(lp).now();
    logs[lp].push_back(entry(now, 100 + static_cast<int>(lp)));
    if (now + step <= horizon)
      net.lp(lp).schedule_at(now + step, [&tick, lp] { tick(lp); });
  };
  for (std::size_t lp = 0; lp < 2; ++lp)
    net.lp(lp).schedule_at(0.0, [&tick, lp] { tick(lp); });

  // The volley: delay max(lookahead, 0.5) each way.
  const double delay = lookahead > 0.0 ? lookahead : 0.5;
  std::function<void(std::size_t, int)> volley = [&](std::size_t at_lp,
                                                     int hop) {
    const double now = net.lp(at_lp).now();
    logs[at_lp].push_back(entry(now, hop));
    if (now + delay > horizon) return;
    const std::size_t next = 1 - at_lp;
    net.send(at_lp, next, now + delay, static_cast<std::uint64_t>(hop),
             [&volley, next, hop] { volley(next, hop + 1); });
  };
  net.send(0, 0, 0.0, 0, [&volley] { volley(0, 0); });

  net.run_until(horizon);
  return logs;
}

TEST(ShardedSimulation, PerLpOrderingsAreIdenticalAcrossThreadCounts) {
  const Logs one = ping_pong(1, 2.0, 50.0);
  ASSERT_FALSE(one[0].empty());
  ASSERT_FALSE(one[1].empty());
  EXPECT_EQ(one, ping_pong(2, 2.0, 50.0));
  EXPECT_EQ(one, ping_pong(8, 2.0, 50.0));
}

TEST(ShardedSimulation, ZeroLookaheadSerializesButStaysCorrect) {
  const Logs one = ping_pong(1, 0.0, 20.0);
  EXPECT_EQ(one, ping_pong(2, 0.0, 20.0));
  EXPECT_EQ(one, ping_pong(8, 0.0, 20.0));
}

TEST(ShardedSimulation, MailboxDeliveryIsSortedByTimeKeySrcSeq) {
  sim::ShardOptions options;
  options.shards = 3;
  options.threads = 2;
  options.lookahead = 1.0;
  sim::ShardedSimulation net(options);
  std::vector<std::uint64_t> order;
  // Same timestamp, shuffled keys, from two different sources: delivery
  // (and hence kernel sequence order on LP 0) must follow the key.
  for (const std::uint64_t key : {7u, 3u, 9u, 1u})
    net.send(1, 0, 5.0, key, [&order, key] { order.push_back(key); });
  for (const std::uint64_t key : {8u, 2u})
    net.send(2, 0, 5.0, key, [&order, key] { order.push_back(key); });
  net.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 7, 8, 9}));
}

TEST(ShardedSimulation, TiedTimestampsAcrossLpsStayDeterministic) {
  auto run = [](std::size_t threads) {
    sim::ShardOptions options;
    options.shards = 4;
    options.threads = threads;
    options.lookahead = 1.0;
    sim::ShardedSimulation net(options);
    Logs logs(4);
    // Every LP has events at the same integer timestamps; each event
    // relays to the next LP at now + 1 with its own key.
    for (std::size_t lp = 0; lp < 4; ++lp) {
      for (int k = 0; k < 3; ++k) {
        net.send(lp, lp, 1.0, static_cast<std::uint64_t>(10 * lp + k),
                 [&net, &logs, lp, k] {
                   logs[lp].push_back(entry(net.lp(lp).now(), k));
                   net.send(lp, (lp + 1) % 4, net.lp(lp).now() + 1.0,
                            static_cast<std::uint64_t>(10 * lp + k),
                            [&logs, lp, k] {
                              logs[(lp + 1) % 4].push_back(
                                  entry(0.0, 1000 + 10 * static_cast<int>(lp) +
                                                 k));
                            });
                 });
      }
    }
    net.run_until(2.0);
    return logs;
  };
  const Logs one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

TEST(ShardedSimulation, RunUntilAdvancesEveryLpClockToTheHorizon) {
  sim::ShardOptions options;
  options.shards = 3;
  options.lookahead = 5.0;
  sim::ShardedSimulation net(options);
  net.lp(1).schedule_at(2.0, [] {});
  EXPECT_EQ(net.run_until(10.0), 1u);
  for (std::size_t lp = 0; lp < 3; ++lp)
    EXPECT_DOUBLE_EQ(net.lp(lp).now(), 10.0) << lp;
  EXPECT_GE(net.windows(), 1u);
}

TEST(ShardedSimulation, ThrowingEventsRethrowLowestLpAtAnyThreadCount) {
  // LPs 1 and 3 throw inside the same window. Whichever lanes they land
  // on, every LP finishes the window, the caller sees LP 1's exception,
  // and the kernels stay consistent enough to resume.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    sim::ShardOptions options;
    options.shards = 4;
    options.threads = threads;
    options.lookahead = 1.0;
    sim::ShardedSimulation net(options);
    std::vector<int> fired(4, 0);
    for (std::size_t lp = 0; lp < 4; ++lp) {
      net.lp(lp).schedule_at(0.5, [&fired, lp] {
        ++fired[lp];
        if (lp % 2 == 1) throw std::runtime_error("lp" + std::to_string(lp));
      });
      net.lp(lp).schedule_at(0.75, [&fired, lp] { ++fired[lp]; });
    }
    try {
      net.run();
      ADD_FAILURE() << "expected LP 1's exception at " << threads
                    << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "lp1") << threads << " threads";
    }
    EXPECT_EQ(fired, (std::vector<int>{2, 1, 2, 1})) << threads << " threads";
    EXPECT_EQ(net.run(), 2u) << threads << " threads";
    EXPECT_EQ(fired, (std::vector<int>{2, 2, 2, 2})) << threads << " threads";
  }
}

TEST(ShardedSimulation, PoolHasNoMoreLanesThanShards) {
  // 8 threads over 2 shards: the pool gets min(threads, shards) lanes, so
  // LP events run on at most 2 threads, and each LP on one of them in
  // every window.
  sim::ShardOptions options;
  options.shards = 2;
  options.threads = 8;
  options.lookahead = 1.0;
  sim::ShardedSimulation net(options);
  std::vector<std::vector<std::thread::id>> ran(2);  // written by LP's lane
  for (std::size_t lp = 0; lp < 2; ++lp)
    for (int t = 0; t < 20; ++t)
      net.lp(lp).schedule_at(t + 0.5, [&ran, lp] {
        ran[lp].push_back(std::this_thread::get_id());
      });
  EXPECT_EQ(net.run(), 40u);
  std::set<std::thread::id> distinct;
  for (const auto& ids : ran) {
    ASSERT_EQ(ids.size(), 20u);
    for (const auto& id : ids) EXPECT_EQ(id, ids.front());
    distinct.insert(ids.begin(), ids.end());
  }
  EXPECT_LE(distinct.size(), 2u);
}

TEST(ShardedSimulation, NextEventTimeReportsAndPurges) {
  sim::Simulation s;
  EXPECT_TRUE(std::isinf(s.next_event_time()));
  auto h = s.schedule_at(3.0, [] {});
  auto h2 = s.schedule_at(5.0, [] {});
  EXPECT_DOUBLE_EQ(s.next_event_time(), 3.0);
  EXPECT_TRUE(h.cancel());
  EXPECT_DOUBLE_EQ(s.next_event_time(), 5.0);  // tombstone purged
  EXPECT_TRUE(h2.cancel());
  EXPECT_TRUE(std::isinf(s.next_event_time()));
}

TEST(ShardedSimulation, OwnerThreadBindingAllowsTheOwner) {
  sim::Simulation s;
  s.bind_owner_thread();  // this thread owns the LP
  auto h = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());  // same thread: allowed
  s.clear_owner_thread();
}

#ifndef NDEBUG
TEST(ShardedSimulationDeathTest, CrossThreadCancelAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulation s;
  auto h = s.schedule_at(1.0, [] {});
  s.bind_owner_thread();
  EXPECT_DEATH(
      {
        std::thread other([&h] { h.cancel(); });
        other.join();
      },
      "does not own its LP");
  s.clear_owner_thread();
}
#endif

// ---------------------------------------------------------------------
// Engine invariance across the shards x threads matrix.

// The shared golden_util fingerprint plus the message counter, which for
// standalone zone runs is a model invariant (spawns + migrations) even
// though it is a kernel diagnostic in composed runs.
std::string zone_fingerprint(const mmog::ZoneSimResult& r) {
  return atlarge::golden::zone_fingerprint(r) +
         " msg=" + std::to_string(r.messages);
}

mmog::ZoneSimConfig small_world() {
  mmog::ZoneSimConfig config;
  config.zones = 8;
  config.act_mean = 20.0;
  config.migrate_prob = 0.15;
  config.crossing_time = 5.0;
  config.session_mean = 600.0;
  config.horizon = 2'000.0;
  config.seed = 42;
  return config;
}

TEST(ZoneSim, InvariantAcrossShardAndThreadMatrix) {
  const auto config = small_world();
  const auto arrivals =
      mmog::synthetic_zone_arrivals(400, config.zones, 500.0, config.seed);
  mmog::ZoneSimConfig base = config;
  const std::string expect =
      zone_fingerprint(mmog::simulate_zones(base, arrivals));
  EXPECT_GT(mmog::simulate_zones(base, arrivals).migrations, 0u);
  for (const std::size_t shards : {2, 3, 8}) {
    for (const std::size_t threads : {1, 2, 8}) {
      mmog::ZoneSimConfig c = config;
      c.shard.shards = shards;
      c.shard.threads = threads;
      EXPECT_EQ(expect, zone_fingerprint(mmog::simulate_zones(c, arrivals)))
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ZoneSim, ZeroCrossingTimeFallsBackToSerializedWindows) {
  auto config = small_world();
  config.crossing_time = 0.0;  // zero lookahead
  config.horizon = 400.0;
  const auto arrivals =
      mmog::synthetic_zone_arrivals(120, config.zones, 200.0, config.seed);
  const std::string expect =
      zone_fingerprint(mmog::simulate_zones(config, arrivals));
  for (const std::size_t shards : {2, 8}) {
    mmog::ZoneSimConfig c = config;
    c.shard.shards = shards;
    c.shard.threads = 2;
    EXPECT_EQ(expect, zone_fingerprint(mmog::simulate_zones(c, arrivals)))
        << shards;
  }
}

TEST(ZoneSim, TiedSpawnTimestampsStayInvariant) {
  auto config = small_world();
  config.horizon = 300.0;
  // Adversarial trace: many avatars entering at identical timestamps.
  std::vector<mmog::ZoneArrival> arrivals;
  for (std::uint64_t i = 0; i < 96; ++i) {
    mmog::ZoneArrival a;
    a.avatar = i;
    a.time = static_cast<double>(i % 4) * 25.0;  // 4 distinct times only
    a.zone = static_cast<std::uint32_t>(i % config.zones);
    arrivals.push_back(a);
  }
  const std::string expect =
      zone_fingerprint(mmog::simulate_zones(config, arrivals));
  for (const std::size_t shards : {2, 5, 8}) {
    mmog::ZoneSimConfig c = config;
    c.shard.shards = shards;
    c.shard.threads = 4;
    EXPECT_EQ(expect, zone_fingerprint(mmog::simulate_zones(c, arrivals)))
        << shards;
  }
}

TEST(ZoneSimChaos, FaultPlanPropertiesHoldWhenSharded) {
  const auto config = small_world();
  const auto arrivals =
      mmog::synthetic_zone_arrivals(300, config.zones, 500.0, config.seed);
  const chaos::Scenario scenario = [&](const fault::FaultPlan* plan) {
    mmog::ZoneSimConfig c = config;
    c.shard.shards = 4;
    c.shard.threads = 2;
    c.faults = plan;
    return zone_fingerprint(mmog::simulate_zones(c, arrivals));
  };
  fault::FaultSpec spec;
  spec.rate = 5.0;
  spec.horizon = config.horizon;
  spec.seed = 7;
  spec.targets = static_cast<std::uint32_t>(config.zones);
  spec.kinds = {fault::FaultKind::kChurnSpike};
  chaos::check_scenario(scenario, fault::FaultPlan::generate(spec));
}

TEST(ZoneSimChaos, FaultedRunsAreInvariantAcrossLayouts) {
  const auto config = small_world();
  const auto arrivals =
      mmog::synthetic_zone_arrivals(300, config.zones, 500.0, config.seed);
  fault::FaultSpec spec;
  spec.rate = 5.0;
  spec.horizon = config.horizon;
  spec.seed = 9;
  spec.targets = static_cast<std::uint32_t>(config.zones);
  spec.kinds = {fault::FaultKind::kChurnSpike};
  const auto plan = fault::FaultPlan::generate(spec);
  auto run = [&](std::size_t shards, std::size_t threads) {
    mmog::ZoneSimConfig c = config;
    c.shard.shards = shards;
    c.shard.threads = threads;
    c.faults = &plan;
    return zone_fingerprint(mmog::simulate_zones(c, arrivals));
  };
  const std::string expect = run(1, 1);
  EXPECT_EQ(expect, run(2, 2));
  EXPECT_EQ(expect, run(8, 8));
  mmog::ZoneSimConfig c = config;
  c.faults = &plan;
  EXPECT_GT(mmog::simulate_zones(c, arrivals).churned, 0u)
      << "plan produced no churn: the invariance check is vacuous";
}

std::string net_fingerprint(const p2p::SwarmNetResult& r) {
  std::string fp;
  fp += "f=" + std::to_string(r.finished);
  fp += " ab=" + std::to_string(r.aborted);
  fp += " c=" + std::to_string(r.churned);
  fp += " an=" + std::to_string(r.announcements);
  fp += " g=" + std::to_string(r.grants);
  fp += " rl=" + std::to_string(r.residual_leechers);
  fp += " rs=" + std::to_string(r.residual_seeds);
  fp += " us=" + std::to_string(r.download_seconds_x1e6);
  fp += " pk=";
  for (const auto v : r.peak_swarm) fp += std::to_string(v) + ",";
  // The header promises the full digest byte-identical across layouts
  // (per-swarm merge in swarm-id order), so pin serialize(), sum included.
  fp += " dig=" + r.download_digest.serialize();
  return fp;
}

p2p::SwarmNetConfig small_net() {
  p2p::SwarmNetConfig config;
  config.swarms = 6;
  config.content_mb = 50.0;
  config.epoch = 10.0;
  config.announce_interval = 60.0;
  config.abort_rate = 1e-4;
  config.horizon = 6'000.0;
  config.seed = 11;
  return config;
}

TEST(SwarmNet, InvariantAcrossShardAndThreadMatrix) {
  const auto config = small_net();
  const auto arrivals = p2p::flashcrowd_net_arrivals(
      500, config.swarms, config.horizon, 1'500.0, 0.5, config.seed);
  p2p::SwarmNetConfig base = config;
  const auto baseline = p2p::simulate_swarm_network(base, arrivals);
  EXPECT_GT(baseline.finished, 0u);
  EXPECT_GT(baseline.announcements, 0u);
  const std::string expect = net_fingerprint(baseline);
  for (const std::size_t shards : {2, 3, 6}) {
    for (const std::size_t threads : {1, 2, 8}) {
      p2p::SwarmNetConfig c = config;
      c.shard.shards = shards;
      c.shard.threads = threads;
      EXPECT_EQ(expect,
                net_fingerprint(p2p::simulate_swarm_network(c, arrivals)))
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(SwarmNet, ArrivalsTiedToEpochBoundariesStayInvariant) {
  auto config = small_net();
  config.horizon = 3'000.0;
  // Adversarial: every arrival exactly on an epoch boundary, several per
  // timestamp — exercises the strict-past census rule.
  std::vector<p2p::PeerArrival> arrivals;
  for (std::uint64_t i = 0; i < 120; ++i) {
    p2p::PeerArrival a;
    a.peer = i;
    a.time = static_cast<double>((i % 10) + 1) * config.epoch;
    a.swarm = static_cast<std::uint32_t>(i % config.swarms);
    arrivals.push_back(a);
  }
  const std::string expect =
      net_fingerprint(p2p::simulate_swarm_network(config, arrivals));
  for (const std::size_t shards : {2, 6}) {
    p2p::SwarmNetConfig c = config;
    c.shard.shards = shards;
    c.shard.threads = 4;
    EXPECT_EQ(expect,
              net_fingerprint(p2p::simulate_swarm_network(c, arrivals)))
        << shards;
  }
}

TEST(SwarmNet, CrossSeedingGrantsFlowAndStayInvariant) {
  auto config = small_net();
  config.content_mb = 20.0;        // quiet swarms drain fast...
  config.seed_time_mean = 10'000;  // ...and their finished peers keep
                                   // seeding: donor rows (0 leechers,
                                   // >0 seeds) for the tracker to pool.
  const auto arrivals = p2p::flashcrowd_net_arrivals(
      300, config.swarms, config.horizon, 2'500.0, 0.6, config.seed);
  const auto baseline = p2p::simulate_swarm_network(config, arrivals);
  EXPECT_GT(baseline.grants, 0u) << "no grants issued: cross-seed untested";
  p2p::SwarmNetConfig c = config;
  c.shard.shards = 6;
  c.shard.threads = 8;
  EXPECT_EQ(net_fingerprint(baseline),
            net_fingerprint(p2p::simulate_swarm_network(c, arrivals)));
}

TEST(SwarmNetChaos, FaultPlanPropertiesHoldWhenSharded) {
  const auto config = small_net();
  const auto arrivals = p2p::flashcrowd_net_arrivals(
      400, config.swarms, config.horizon, 1'000.0, 0.4, config.seed);
  const chaos::Scenario scenario = [&](const fault::FaultPlan* plan) {
    p2p::SwarmNetConfig c = config;
    c.shard.shards = 3;
    c.shard.threads = 2;
    c.faults = plan;
    return net_fingerprint(p2p::simulate_swarm_network(c, arrivals));
  };
  fault::FaultSpec spec;
  spec.rate = 3.0;
  spec.horizon = config.horizon;
  spec.seed = 13;
  spec.targets = static_cast<std::uint32_t>(config.swarms);
  spec.kinds = {fault::FaultKind::kChurnSpike};
  const auto plan = fault::FaultPlan::generate(spec);
  chaos::check_scenario(scenario, plan);

  // And the faulted result is layout-invariant with real churn.
  auto run = [&](std::size_t shards, std::size_t threads) {
    p2p::SwarmNetConfig c = config;
    c.shard.shards = shards;
    c.shard.threads = threads;
    c.faults = &plan;
    return p2p::simulate_swarm_network(c, arrivals);
  };
  const auto one = run(1, 1);
  EXPECT_GT(one.churned, 0u) << "plan produced no churn: check is vacuous";
  EXPECT_EQ(net_fingerprint(one), net_fingerprint(run(6, 8)));
}

}  // namespace
