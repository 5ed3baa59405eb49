// Tests for the portfolio scheduler (paper Section 6.6).

#include <algorithm>

#include <gtest/gtest.h>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/workflow/generators.hpp"

namespace sched = atlarge::sched;
namespace wf = atlarge::workflow;
namespace cluster = atlarge::cluster;

namespace {

wf::Workload heavy_workload(std::uint64_t seed, std::size_t jobs = 40) {
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kScientific;
  spec.jobs = jobs;
  spec.horizon = 2'000.0;
  spec.seed = seed;
  return wf::generate(spec);
}

sched::PortfolioScheduler make_portfolio(const cluster::Environment& env,
                                         sched::PortfolioConfig config = {}) {
  return sched::PortfolioScheduler(sched::standard_policies(), env, config);
}

}  // namespace

TEST(Portfolio, RejectsEmptyPortfolio) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  EXPECT_THROW(sched::PortfolioScheduler({}, env), std::invalid_argument);
}

TEST(Portfolio, SelectsAPolicyOnFirstTick) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  auto portfolio = make_portfolio(env);
  const auto wl = heavy_workload(1);
  (void)sched::simulate(env, wl, portfolio);
  EXPECT_FALSE(portfolio.selections().empty());
}

TEST(Portfolio, CompletesAllJobs) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  auto portfolio = make_portfolio(env);
  const auto wl = heavy_workload(2);
  const auto result = sched::simulate(env, wl, portfolio);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
}

TEST(Portfolio, NotWorseThanWorstSinglePolicy) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  const auto wl = heavy_workload(3);
  double worst = 0.0;
  for (auto& p : sched::standard_policies()) {
    const auto r = sched::simulate(env, wl, *p);
    worst = std::max(worst, r.mean_slowdown);
  }
  auto portfolio = make_portfolio(env);
  const auto r = sched::simulate(env, wl, portfolio);
  EXPECT_LE(r.mean_slowdown, worst * 1.05);
}

TEST(Portfolio, ZeroCostMeansNoOverhead) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  sched::PortfolioConfig config;
  config.cost_per_task_policy = 0.0;
  auto portfolio = make_portfolio(env, config);
  const auto result = sched::simulate(env, heavy_workload(4), portfolio);
  EXPECT_DOUBLE_EQ(result.decision_overhead, 0.0);
}

TEST(Portfolio, SimulationCostDelaysPlacements) {
  // The paper's [114] finding: charging for the what-if simulations makes
  // the online portfolio slower end-to-end.
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  const auto wl = heavy_workload(5);
  sched::PortfolioConfig cheap;
  cheap.cost_per_task_policy = 0.0;
  sched::PortfolioConfig costly;
  costly.cost_per_task_policy = 0.5;  // seconds per policy x task
  auto p_cheap = make_portfolio(env, cheap);
  auto p_costly = make_portfolio(env, costly);
  const auto r_cheap = sched::simulate(env, wl, p_cheap);
  const auto r_costly = sched::simulate(env, wl, p_costly);
  EXPECT_GT(r_costly.decision_overhead, 0.0);
  EXPECT_GT(r_costly.makespan, r_cheap.makespan);
}

TEST(Portfolio, ActiveSetReducesOverhead) {
  // The paper's [115] fix: a limited active set cuts simulation cost.
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  const auto wl = heavy_workload(6);
  sched::PortfolioConfig full;
  full.cost_per_task_policy = 0.05;
  sched::PortfolioConfig limited = full;
  limited.active_set = 2;
  auto p_full = make_portfolio(env, full);
  auto p_limited = make_portfolio(env, limited);
  const auto r_full = sched::simulate(env, wl, p_full);
  const auto r_limited = sched::simulate(env, wl, p_limited);
  EXPECT_LT(p_limited.total_overhead(), p_full.total_overhead());
  (void)r_full;
  (void)r_limited;
}

TEST(Portfolio, UtilityNoiseCausesDifferentSelections) {
  // The paper's [120] finding: unpredictable policy performance can make
  // the portfolio mis-select.
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  const auto wl = heavy_workload(7, 60);
  sched::PortfolioConfig clean;
  sched::PortfolioConfig noisy;
  noisy.utility_noise = 3.0;
  noisy.seed = 1234;
  auto p_clean = make_portfolio(env, clean);
  auto p_noisy = make_portfolio(env, noisy);
  (void)sched::simulate(env, wl, p_clean);
  (void)sched::simulate(env, wl, p_noisy);
  EXPECT_NE(p_clean.selections(), p_noisy.selections());
}

TEST(Portfolio, CloneIsIndependentButEquivalent) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  auto portfolio = make_portfolio(env);
  auto clone = portfolio.clone();
  const auto wl = heavy_workload(8);
  const auto r1 = sched::simulate(env, wl, portfolio);
  const auto r2 = sched::simulate(env, wl, *clone);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
}

TEST(Portfolio, CurrentPolicyIsFromZoo) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  auto portfolio = make_portfolio(env);
  (void)sched::simulate(env, heavy_workload(9), portfolio);
  const auto current = portfolio.current_policy();
  bool known = false;
  for (const auto& p : sched::standard_policies())
    known |= p->name() == current;
  EXPECT_TRUE(known);
}

TEST(Portfolio, SelectionIntervalBoundsSelections) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  sched::PortfolioConfig config;
  config.selection_interval = 1e9;  // effectively once
  auto portfolio = make_portfolio(env, config);
  (void)sched::simulate(env, heavy_workload(10), portfolio);
  std::size_t total = 0;
  for (const auto& [name, count] : portfolio.selections()) total += count;
  EXPECT_EQ(total, 1u);
}

TEST(Portfolio, SerialAndParallelRunsAreBitwiseIdentical) {
  // Determinism is load-bearing (the paper's reproducibility stance): the
  // parallel what-if evaluation must select exactly what the serial order
  // selects, for any thread count. Noise is on so the per-candidate RNG
  // streams are exercised too.
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  const auto wl = heavy_workload(11);
  sched::PortfolioConfig base;
  base.utility_noise = 0.5;
  base.seed = 99;
  base.eval_threads = 1;
  auto p_serial = make_portfolio(env, base);
  const auto r_serial = sched::simulate(env, wl, p_serial);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    sched::PortfolioConfig par = base;
    par.eval_threads = threads;
    auto p_par = make_portfolio(env, par);
    const auto r_par = sched::simulate(env, wl, p_par);
    EXPECT_EQ(p_serial.selections(), p_par.selections())
        << "eval_threads=" << threads;
    EXPECT_DOUBLE_EQ(r_serial.makespan, r_par.makespan);
    EXPECT_DOUBLE_EQ(r_serial.mean_slowdown, r_par.mean_slowdown);
    EXPECT_DOUBLE_EQ(r_serial.mean_wait, r_par.mean_wait);
  }
}

namespace {

std::vector<sched::TaskRef> synthetic_queue(std::size_t n) {
  std::vector<sched::TaskRef> queue;
  queue.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sched::TaskRef ref;
    ref.job_id = i / 4;
    ref.task_id = static_cast<std::uint32_t>(i % 4);
    ref.runtime = static_cast<double>(1 + (i * 37) % 200);
    ref.cores = static_cast<std::uint32_t>(1 + i % 3);
    ref.user = static_cast<std::uint32_t>(i % 3);
    queue.push_back(ref);
  }
  return queue;
}

}  // namespace

TEST(Portfolio, ParallelTickPicksSamePolicyAsSerial) {
  // One decision round, same inputs, 1/2/8 evaluation threads: identical
  // winner and identical EWMA state (observable through a second round).
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  const auto queue = synthetic_queue(64);
  std::string serial_pick;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    sched::PortfolioConfig config;
    config.eval_threads = threads;
    config.utility_noise = 1.0;  // draws must not depend on thread count
    config.min_queue_to_select = 1;
    auto portfolio = make_portfolio(env, config);
    sched::SchedState state;
    state.now = 0.0;
    portfolio.tick(state, queue);
    if (threads == 1) {
      serial_pick = portfolio.current_policy();
    } else {
      EXPECT_EQ(portfolio.current_policy(), serial_pick)
          << "eval_threads=" << threads;
    }
  }
  EXPECT_FALSE(serial_pick.empty());
}

TEST(Portfolio, TickDependsOnArrivalOrderNotQueueOrder) {
  // The queue reaches tick() in whatever order the applied policy left
  // it; the snapshot must take the first snapshot_cap tasks by arrival
  // (TaskRef::seq), so a permuted queue with the same stamps selects
  // exactly as the arrival-ordered one does.
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  auto queue = synthetic_queue(96);
  for (std::size_t i = 0; i < queue.size(); ++i) queue[i].seq = i;
  auto permuted = queue;
  std::reverse(permuted.begin(), permuted.end());
  std::rotate(permuted.begin(), permuted.begin() + 29, permuted.end());

  sched::PortfolioConfig config;
  config.snapshot_cap = 40;  // under the queue length: which 40 matters
  config.cost_per_task_policy = 0.01;
  config.min_queue_to_select = 1;
  config.selection_interval = 1.0;
  auto a = make_portfolio(env, config);
  auto b = make_portfolio(env, config);
  for (int round = 0; round < 4; ++round) {
    sched::SchedState state;
    state.now = 100.0 * round;
    a.tick(state, queue);
    b.tick(state, permuted);
    EXPECT_EQ(a.current_policy(), b.current_policy()) << "round " << round;
    EXPECT_EQ(a.total_overhead(), b.total_overhead()) << "round " << round;
    // Rotate the queues to a fresh (still stamp-consistent) order.
    std::rotate(queue.begin(), queue.begin() + 11, queue.end());
    std::rotate(permuted.begin(), permuted.begin() + 5, permuted.end());
  }
  EXPECT_EQ(a.selections(), b.selections());
}

// Portfolio usefulness property across environments (the Table 9 claim):
// the portfolio lands within ~25% of the best single policy's mean
// slowdown on every environment type (the paper's "useful" threshold;
// the portfolio cannot beat the best policy it selects from).
class PortfolioUseful : public ::testing::TestWithParam<int> {};

TEST_P(PortfolioUseful, CloseToBestSinglePolicy) {
  cluster::Environment env;
  switch (GetParam()) {
    case 0: env = cluster::make_homogeneous_cluster("cl", 2, 4); break;
    case 1: env = cluster::make_grid("g", 3, 1, 4); break;
    case 2: env = cluster::make_multi_cluster("mcd", 2, 2, 2); break;
    default: env = cluster::make_geo_distributed("gdc", 2, 2, 2, 0.05); break;
  }
  const auto wl = heavy_workload(100 + GetParam());
  double best = std::numeric_limits<double>::infinity();
  for (auto& p : sched::standard_policies()) {
    const auto r = sched::simulate(env, wl, *p);
    best = std::min(best, r.mean_slowdown);
  }
  auto portfolio = make_portfolio(env);
  const auto r = sched::simulate(env, wl, portfolio);
  EXPECT_LE(r.mean_slowdown, best * 1.25 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Environments, PortfolioUseful,
                         ::testing::Range(0, 4));
