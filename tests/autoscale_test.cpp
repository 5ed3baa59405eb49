// Tests for autoscalers, the elastic simulator, elasticity metrics, and
// the ranking/grading methods (paper Section 6.7).

#include <limits>
#include <string_view>

#include <gtest/gtest.h>

#include "atlarge/autoscale/autoscalers.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/autoscale/elastic_sim.hpp"
#include "atlarge/autoscale/metrics.hpp"
#include "atlarge/autoscale/ranking.hpp"
#include "atlarge/workflow/generators.hpp"

namespace as = atlarge::autoscale;
namespace wf = atlarge::workflow;

namespace {

wf::Workload workflow_workload(std::uint64_t seed, std::size_t jobs = 30) {
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kIndustrial;  // small DAG workflows
  spec.jobs = jobs;
  spec.horizon = 3'000.0;
  spec.seed = seed;
  return wf::generate(spec);
}

}  // namespace

// ------------------------------------------------------------ autoscalers --

TEST(Autoscalers, MachinesForCoresRoundsUp) {
  EXPECT_EQ(as::machines_for_cores(0.0, 4), 0u);
  EXPECT_EQ(as::machines_for_cores(1.0, 4), 1u);
  EXPECT_EQ(as::machines_for_cores(4.0, 4), 1u);
  EXPECT_EQ(as::machines_for_cores(4.1, 4), 2u);
}

TEST(Autoscalers, ReactTracksDemandExactly) {
  as::ReactAutoscaler react;
  as::Observation obs;
  obs.cores_per_machine = 4;
  obs.demand_cores = 10.0;
  EXPECT_EQ(react.target_machines(obs), 3u);
  obs.demand_cores = 0.0;
  EXPECT_EQ(react.target_machines(obs), 0u);
}

TEST(Autoscalers, AdaptScalesUpEagerly) {
  as::AdaptAutoscaler adapt;
  as::Observation obs;
  obs.cores_per_machine = 1;
  obs.supply_machines = 2;
  obs.demand_cores = 10.0;
  EXPECT_EQ(adapt.target_machines(obs), 10u);
}

TEST(Autoscalers, AdaptScalesDownWithPatience) {
  as::AdaptAutoscaler adapt(/*down_patience=*/2, /*down_step=*/1);
  as::Observation obs;
  obs.cores_per_machine = 1;
  obs.supply_machines = 10;
  obs.demand_cores = 2.0;
  EXPECT_EQ(adapt.target_machines(obs), 10u);  // 1st over-observation
  EXPECT_EQ(adapt.target_machines(obs), 9u);   // patience reached, step 1
  obs.supply_machines = 9;                     // the scale-down took effect
  EXPECT_EQ(adapt.target_machines(obs), 9u);   // streak was reset
}

TEST(Autoscalers, HistProvisionsWindowPercentile) {
  as::HistAutoscaler hist(/*window=*/4, /*percentile=*/1.0);  // max
  as::Observation obs;
  obs.cores_per_machine = 1;
  for (double d : {2.0, 8.0, 3.0}) {
    obs.demand_cores = d;
    (void)hist.target_machines(obs);
  }
  obs.demand_cores = 1.0;
  EXPECT_EQ(hist.target_machines(obs), 8u);  // window max
}

TEST(Autoscalers, RegExtrapolatesTrend) {
  as::RegAutoscaler reg(/*window=*/4);
  as::Observation obs;
  obs.cores_per_machine = 1;
  for (int i = 0; i < 4; ++i) {
    obs.now = static_cast<double>(i);
    obs.demand_cores = static_cast<double>(2 * i);  // slope 2
    (void)reg.target_machines(obs);
  }
  obs.now = 4.0;
  obs.demand_cores = 8.0;
  // Next prediction ~ 2 * 5 = 10.
  EXPECT_GE(reg.target_machines(obs), 9u);
}

TEST(Autoscalers, ConPaasNeverBelowCurrentDemand) {
  as::ConPaasAutoscaler conpaas(4);
  as::Observation obs;
  obs.cores_per_machine = 1;
  for (double d : {1.0, 1.0, 1.0}) {
    obs.demand_cores = d;
    (void)conpaas.target_machines(obs);
  }
  obs.demand_cores = 20.0;
  EXPECT_GE(conpaas.target_machines(obs), 20u);
}

TEST(Autoscalers, PlanAddsLopSoon) {
  as::PlanAutoscaler plan;
  as::Observation obs;
  obs.cores_per_machine = 1;
  obs.demand_cores = 5.0;
  obs.lop_soon_cores = 3.0;
  EXPECT_EQ(plan.target_machines(obs), 8u);
}

TEST(Autoscalers, TokenDiscountsLopSoon) {
  as::TokenAutoscaler token(0.5);
  as::Observation obs;
  obs.cores_per_machine = 1;
  obs.demand_cores = 5.0;
  obs.lop_soon_cores = 4.0;
  EXPECT_EQ(token.target_machines(obs), 7u);
}

TEST(Autoscalers, ZooHasSevenDistinct) {
  const auto zoo = as::standard_autoscalers();
  ASSERT_EQ(zoo.size(), 7u);
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    for (std::size_t j = i + 1; j < zoo.size(); ++j) {
      EXPECT_NE(zoo[i]->name(), zoo[j]->name());
    }
  }
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, PerfectProvisioningIsAllZero) {
  std::vector<as::SupplyDemandPoint> series = {
      {0.0, 4.0, 4.0}, {10.0, 6.0, 6.0}, {20.0, 2.0, 2.0}};
  const auto m = as::compute_metrics(series, 30.0);
  EXPECT_DOUBLE_EQ(m.accuracy_over, 0.0);
  EXPECT_DOUBLE_EQ(m.accuracy_under, 0.0);
  EXPECT_DOUBLE_EQ(m.timeshare_over, 0.0);
  EXPECT_DOUBLE_EQ(m.timeshare_under, 0.0);
}

TEST(Metrics, OverProvisioningMeasured) {
  std::vector<as::SupplyDemandPoint> series = {{0.0, 2.0, 6.0}};
  const auto m = as::compute_metrics(series, 10.0);
  EXPECT_DOUBLE_EQ(m.accuracy_over, 4.0);
  EXPECT_DOUBLE_EQ(m.timeshare_over, 1.0);
  EXPECT_DOUBLE_EQ(m.norm_accuracy_over, 2.0);
}

TEST(Metrics, UnderProvisioningMeasured) {
  std::vector<as::SupplyDemandPoint> series = {{0.0, 8.0, 2.0},
                                               {5.0, 8.0, 8.0}};
  const auto m = as::compute_metrics(series, 10.0);
  EXPECT_DOUBLE_EQ(m.accuracy_under, 3.0);  // 6 cores short for half time
  EXPECT_DOUBLE_EQ(m.timeshare_under, 0.5);
}

TEST(Metrics, InstabilityCountsOppositeMoves) {
  // Demand up, supply down at step 1; both up at step 2.
  std::vector<as::SupplyDemandPoint> series = {
      {0.0, 2.0, 4.0}, {1.0, 4.0, 2.0}, {2.0, 6.0, 4.0}};
  const auto m = as::compute_metrics(series, 3.0);
  EXPECT_DOUBLE_EQ(m.instability, 0.5);
}

TEST(Metrics, JitterCountsDirectionChanges) {
  std::vector<as::SupplyDemandPoint> series = {
      {0.0, 1.0, 1.0}, {900.0, 1.0, 3.0}, {1800.0, 1.0, 1.0},
      {2700.0, 1.0, 3.0}};
  const auto m = as::compute_metrics(series, 3'600.0);
  // up, down, up -> two direction changes in one hour.
  EXPECT_DOUBLE_EQ(m.jitter_per_hour, 2.0);
}

TEST(Metrics, EmptySeriesYieldsZeros) {
  const auto m = as::compute_metrics({}, 100.0);
  EXPECT_DOUBLE_EQ(m.avg_supply, 0.0);
  EXPECT_DOUBLE_EQ(m.avg_demand, 0.0);
}

// ------------------------------------------------------------ elastic sim --

TEST(ElasticSim, AllJobsComplete) {
  as::ReactAutoscaler react;
  const auto wl = workflow_workload(1);
  const auto result = as::run_elastic(wl, react);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  EXPECT_GT(result.makespan, 0.0);
}

TEST(ElasticSim, RejectsTooWideTasks) {
  wf::Workload wl;
  wf::Job job;
  job.tasks.push_back({1.0, 16, {}});
  wl.jobs.push_back(job);
  as::ReactAutoscaler react;
  as::ElasticConfig config;
  config.cores_per_machine = 4;
  EXPECT_THROW(as::run_elastic(wl, react, config), std::invalid_argument);
}

TEST(ElasticSim, RejectsInvalidJobs) {
  as::ReactAutoscaler react;
  const auto two_tasks = [](std::vector<wf::TaskId> deps0,
                            std::vector<wf::TaskId> deps1) {
    wf::Workload wl;
    wf::Job job;
    job.tasks.push_back({1.0, 1, std::move(deps0)});
    job.tasks.push_back({1.0, 1, std::move(deps1)});
    wl.jobs.push_back(job);
    return wl;
  };
  EXPECT_THROW(as::run_elastic(two_tasks({}, {7}), react),
               std::invalid_argument);  // out of range
  EXPECT_THROW(as::run_elastic(two_tasks({1}, {0}), react),
               std::invalid_argument);  // cycle
  auto nan_runtime = two_tasks({}, {0});
  nan_runtime.jobs[0].tasks[1].runtime =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(as::run_elastic(nan_runtime, react), std::invalid_argument);
}

TEST(ElasticSim, DependencyListedTwiceStillUnlocks) {
  wf::Workload wl;
  wf::Job job;
  job.tasks.push_back({1.0, 1, {}});
  job.tasks.push_back({2.0, 1, {0, 0}});
  wl.jobs.push_back(job);
  as::ReactAutoscaler react;
  const auto result = as::run_elastic(wl, react);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish, 3.0);
}

TEST(ElasticSim, SeriesRecorded) {
  as::ReactAutoscaler react;
  const auto result = as::run_elastic(workflow_workload(2), react);
  EXPECT_GT(result.series.size(), 2u);
  for (const auto& p : result.series) {
    EXPECT_GE(p.supply, 0.0);
    EXPECT_GE(p.demand, 0.0);
  }
}

TEST(ElasticSim, RentalsCoverWork) {
  as::ReactAutoscaler react;
  const auto wl = workflow_workload(3);
  const auto result = as::run_elastic(wl, react);
  double rented_core_seconds = 0.0;
  as::ElasticConfig defaults;
  for (double r : result.rentals)
    rented_core_seconds += r * defaults.cores_per_machine;
  // Machines must be rented at least as long as the work they executed.
  EXPECT_GE(rented_core_seconds, wl.total_work() * 0.99);
}

TEST(ElasticSim, MinMachinesRespected) {
  as::ReactAutoscaler react;
  as::ElasticConfig config;
  config.min_machines = 3;
  const auto result = as::run_elastic(workflow_workload(4), react, config);
  for (const auto& p : result.series) {
    EXPECT_GE(p.supply, 3.0 * config.cores_per_machine);
  }
}

TEST(ElasticSim, MaxMachinesRespected) {
  as::ReactAutoscaler react;
  as::ElasticConfig config;
  config.max_machines = 2;
  const auto result = as::run_elastic(workflow_workload(5), react, config);
  for (const auto& p : result.series) {
    EXPECT_LE(p.supply, 2.0 * config.cores_per_machine + 1e-9);
  }
}

TEST(ElasticSim, DeadlineAccountingEnabled) {
  as::ReactAutoscaler react;
  as::ElasticConfig config;
  config.sla_factor = 4.0;
  const auto result = as::run_elastic(workflow_workload(6), react, config);
  EXPECT_EQ(result.deadline_total, result.jobs.size());
  EXPECT_LE(result.deadline_violations, result.deadline_total);
}

TEST(ElasticSim, TightProvisioningDelayHurtsLess) {
  // Faster provisioning should not worsen mean slowdown.
  const auto wl = workflow_workload(7);
  as::ElasticConfig fast;
  fast.provisioning_delay = 5.0;
  as::ElasticConfig slow;
  slow.provisioning_delay = 600.0;
  as::ReactAutoscaler r1;
  as::ReactAutoscaler r2;
  const auto fast_result = as::run_elastic(wl, r1, fast);
  const auto slow_result = as::run_elastic(wl, r2, slow);
  EXPECT_LE(fast_result.mean_slowdown, slow_result.mean_slowdown * 1.01);
}

TEST(ElasticSim, DeterministicAcrossRuns) {
  const auto wl = workflow_workload(8);
  as::PlanAutoscaler p1;
  as::PlanAutoscaler p2;
  const auto a = as::run_elastic(wl, p1);
  const auto b = as::run_elastic(wl, p2);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.rentals.size(), b.rentals.size());
}

// ---------------------------------------------------------------- ranking --

TEST(Ranking, PairwiseClearWinner) {
  std::vector<as::SystemScores> systems = {
      {"good", {1.0, 1.0, 1.0}},
      {"mid", {2.0, 2.0, 2.0}},
      {"bad", {3.0, 3.0, 3.0}},
  };
  const auto ranked = as::rank_pairwise(systems);
  EXPECT_EQ(ranked[0].name, "good");
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.0);
  EXPECT_EQ(ranked[2].name, "bad");
  EXPECT_DOUBLE_EQ(ranked[2].score, 0.0);
}

TEST(Ranking, FractionalBestHasZeroPenalty) {
  std::vector<as::SystemScores> systems = {
      {"best", {1.0, 2.0}},
      {"worse", {2.0, 4.0}},
  };
  const auto ranked = as::rank_fractional(systems);
  EXPECT_EQ(ranked[0].name, "best");
  EXPECT_DOUBLE_EQ(ranked[0].score, 0.0);
  EXPECT_DOUBLE_EQ(ranked[1].score, 1.0);  // 100% worse on each metric
}

TEST(Ranking, RaggedInputRejected) {
  std::vector<as::SystemScores> systems = {
      {"a", {1.0, 2.0}},
      {"b", {1.0}},
  };
  EXPECT_THROW(as::rank_pairwise(systems), std::invalid_argument);
  EXPECT_THROW(as::rank_fractional(systems), std::invalid_argument);
}

TEST(Ranking, GradeInZeroTen) {
  std::vector<as::SystemScores> systems = {
      {"a", {1.0, 3.0}},
      {"b", {2.0, 1.0}},
      {"c", {3.0, 2.0}},
  };
  for (const auto& g : as::grade(systems)) {
    EXPECT_GE(g.score, 0.0);
    EXPECT_LE(g.score, 10.0);
  }
}

TEST(Ranking, GradeTopIsParetoReasonable) {
  std::vector<as::SystemScores> systems = {
      {"dominator", {1.0, 1.0, 1.0}},
      {"other", {5.0, 5.0, 5.0}},
  };
  const auto graded = as::grade(systems);
  EXPECT_EQ(graded[0].name, "dominator");
  EXPECT_GT(graded[0].score, graded[1].score);
}

// Full-zoo property: every autoscaler completes the workload and yields
// bounded metrics.
class ZooCompletes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZooCompletes, WorkloadFinishesWithSaneMetrics) {
  auto zoo = as::standard_autoscalers();
  auto& scaler = *zoo[GetParam()];
  const auto wl = workflow_workload(50 + GetParam(), 20);
  const auto result = as::run_elastic(wl, scaler);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size()) << scaler.name();
  EXPECT_GE(result.metrics.timeshare_over, 0.0);
  EXPECT_LE(result.metrics.timeshare_over, 1.0);
  EXPECT_GE(result.metrics.timeshare_under, 0.0);
  EXPECT_LE(result.metrics.timeshare_under, 1.0);
  EXPECT_GE(result.metrics.instability, 0.0);
  EXPECT_LE(result.metrics.instability, 1.0);
  EXPECT_GE(result.metrics.accuracy_over, 0.0);
  EXPECT_GE(result.metrics.accuracy_under, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllAutoscalers, ZooCompletes,
                         ::testing::Range<std::size_t>(0, 7));

TEST(Observability, ElasticRunEmitsAutoscaleTelemetry) {
  atlarge::obs::Observability plane;
  const auto wl = workflow_workload(9, 10);
  as::ReactAutoscaler react;
  as::ElasticConfig config;
  config.obs = &plane;
  const auto result = as::run_elastic(wl, react, config);

  const auto& counters = plane.metrics.counters();
  EXPECT_EQ(counters.at("autoscale.ticks").value(), result.series.size());
  EXPECT_GE(counters.at("autoscale.machines_added").value(),
            counters.at("autoscale.machines_removed").value());
  // The last census gauges mirror the final supply/demand sample.
  EXPECT_DOUBLE_EQ(plane.metrics.gauges().at("autoscale.supply_cores").value(),
                   result.series.back().supply);

  bool saw_run = false;
  std::size_t ticks = 0;
  for (const auto& rec : plane.tracer.records()) {
    if (std::string_view(rec.name) == "autoscale.run") saw_run = true;
    if (std::string_view(rec.name) == "autoscale.tick" &&
        rec.kind == atlarge::obs::SpanKind::kBegin)
      ++ticks;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_EQ(ticks, result.series.size());

  // Observation must not perturb the simulation.
  as::ReactAutoscaler bare_react;
  const auto bare = as::run_elastic(wl, bare_react, {});
  EXPECT_DOUBLE_EQ(bare.makespan, result.makespan);
}

// ----------------------------------------------------- fault injection --

namespace {

wf::Workload one_long_task() {
  wf::Workload wl;
  wf::Job job;
  job.submit_time = 0.0;
  job.user = "u";
  job.tasks.push_back({100.0, 1, {}});
  wl.jobs.push_back(std::move(job));
  wl.normalize();
  return wl;
}

as::ElasticConfig tight_pool() {
  as::ElasticConfig config;
  config.cores_per_machine = 1;
  config.max_machines = 4;
  config.min_machines = 1;
  config.provisioning_delay = 10.0;
  config.interval = 5.0;
  return config;
}

}  // namespace

TEST(Faults, CrashReprovisionsAndRestartsTheTask) {
  const auto wl = one_long_task();
  atlarge::fault::FaultPlan plan;
  plan.add({20.0, atlarge::fault::FaultKind::kMachineCrash, 0, 60.0, 0.5});
  as::ReactAutoscaler react;
  auto config = tight_pool();
  config.faults = &plan;
  const auto result = as::run_elastic(wl, react, config);
  // The crash discards 20s of progress; the autoscaler provisions a
  // replacement (10s delay) and the task reruns from scratch, so the
  // makespan exceeds the fault-free 100s by at least the lost progress.
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_GT(result.makespan, 120.0);
  EXPECT_EQ(result.tasks_requeued, 1u);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.faults_recovered, 1u);  // restarted on a new machine
  // The crashed machine's rental was closed: at least two rentals total.
  EXPECT_GE(result.rentals.size(), 2u);
}

TEST(Faults, NullAndEmptyPlansKeepElasticRunByteIdentical) {
  const auto wl = one_long_task();
  const auto run = [&](const atlarge::fault::FaultPlan* faults) {
    as::ReactAutoscaler react;
    auto config = tight_pool();
    config.faults = faults;
    return as::run_elastic(wl, react, config);
  };
  const auto baseline = run(nullptr);
  const atlarge::fault::FaultPlan empty;
  const auto with_empty = run(&empty);
  EXPECT_EQ(baseline.makespan, with_empty.makespan);
  EXPECT_EQ(baseline.mean_slowdown, with_empty.mean_slowdown);
  EXPECT_EQ(baseline.rentals, with_empty.rentals);
  EXPECT_EQ(with_empty.faults_injected, 0u);
  EXPECT_EQ(with_empty.tasks_requeued, 0u);
  EXPECT_EQ(with_empty.faults_recovered, 0u);
}

TEST(Faults, RepeatedCrashesStillCompleteTheWorkload) {
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kIndustrial;
  spec.jobs = 10;
  spec.horizon = 500.0;
  spec.seed = 6;
  const auto wl = wf::generate(spec);
  atlarge::fault::FaultPlan plan;
  plan.add({50.0, atlarge::fault::FaultKind::kMachineCrash, 0, 30.0, 0.5});
  plan.add({120.0, atlarge::fault::FaultKind::kMachineCrash, 1, 30.0, 0.5});
  plan.add({300.0, atlarge::fault::FaultKind::kMachineCrash, 2, 30.0, 0.5});
  as::ReactAutoscaler react;
  as::ElasticConfig config;
  config.cores_per_machine = 4;
  config.max_machines = 8;
  config.faults = &plan;
  const auto result = as::run_elastic(wl, react, config);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  EXPECT_EQ(result.faults_injected, 3u);
  EXPECT_GE(result.faults_recovered, result.tasks_requeued == 0 ? 0u : 1u);
}
