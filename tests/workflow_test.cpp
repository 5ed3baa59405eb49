// Tests for jobs, DAG invariants, and workload generators.

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "atlarge/workflow/generators.hpp"
#include "atlarge/workflow/job.hpp"

namespace wf = atlarge::workflow;
using atlarge::stats::Rng;

namespace {

wf::Job diamond() {
  // 0 -> {1, 2} -> 3
  wf::Job job;
  job.tasks.resize(4);
  for (auto& t : job.tasks) t.runtime = 1.0;
  job.tasks[1].deps = {0};
  job.tasks[2].deps = {0};
  job.tasks[3].deps = {1, 2};
  return job;
}

}  // namespace

TEST(Job, TotalWorkSumsCoreSeconds) {
  wf::Job job;
  job.tasks.push_back({10.0, 2, {}});
  job.tasks.push_back({5.0, 4, {}});
  EXPECT_DOUBLE_EQ(job.total_work(), 40.0);
}

TEST(Job, TopologicalOrderRespectsDeps) {
  const auto job = diamond();
  const auto order = job.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[0], position[2]);
  EXPECT_LT(position[1], position[3]);
  EXPECT_LT(position[2], position[3]);
}

TEST(Job, TopologicalOrderIsFifoOverTaskIndex) {
  // Deps listed out of order, and 1 listed twice by task 2: Kahn's FIFO
  // starts from the roots in index order and appends each unlocked task
  // in index order.
  wf::Job job;
  job.tasks.resize(6);
  job.tasks[0].deps = {3};
  job.tasks[2].deps = {5, 1, 1};
  job.tasks[3].deps = {5};
  job.tasks[5].deps = {4, 1};
  EXPECT_EQ(job.topological_order(),
            (std::vector<wf::TaskId>{1, 4, 5, 2, 3, 0}));
}

TEST(Job, CycleDetected) {
  wf::Job job;
  job.tasks.resize(2);
  job.tasks[0].runtime = job.tasks[1].runtime = 1.0;
  job.tasks[0].deps = {1};
  job.tasks[1].deps = {0};
  EXPECT_THROW(job.topological_order(), std::invalid_argument);
}

TEST(Job, SelfDependencyDetected) {
  wf::Job job;
  job.tasks.resize(1);
  job.tasks[0].runtime = 1.0;
  job.tasks[0].deps = {0};
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(Job, OutOfRangeDepDetected) {
  wf::Job job;
  job.tasks.resize(1);
  job.tasks[0].runtime = 1.0;
  job.tasks[0].deps = {7};
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(Job, ValidateRejectsNonPositiveRuntime) {
  wf::Job job;
  job.tasks.push_back({0.0, 1, {}});
  EXPECT_THROW(job.validate(), std::invalid_argument);
  // Non-finite runtimes too: `runtime <= 0` alone lets NaN through.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    job.tasks[0].runtime = bad;
    EXPECT_THROW(job.validate(), std::invalid_argument) << bad;
  }
}

TEST(Job, ValidateRejectsNonFiniteSubmitTime) {
  wf::Job job;
  job.tasks.push_back({1.0, 1, {}});
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    job.submit_time = bad;
    EXPECT_THROW(job.validate(), std::invalid_argument) << bad;
  }
}

TEST(Job, ValidateRejectsJobWithoutTasks) {
  // No task would ever finish it: engines waiting for its last task hung.
  wf::Job job;
  EXPECT_THROW(job.validate(), std::invalid_argument);
  job.tasks.push_back({1.0, 1, {}});
  EXPECT_NO_THROW(job.validate());
}

TEST(Job, ValidateRejectsZeroCores) {
  wf::Job job;
  job.tasks.push_back({1.0, 0, {}});
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(Job, CriticalPathDiamond) {
  auto job = diamond();
  job.tasks[1].runtime = 5.0;  // long branch
  EXPECT_DOUBLE_EQ(job.critical_path(), 1.0 + 5.0 + 1.0);
}

TEST(Job, CriticalPathChainIsSum) {
  Rng rng(1);
  const auto chain = wf::make_chain(10, 3.0, rng);
  double sum = 0.0;
  for (const auto& t : chain.tasks) sum += t.runtime;
  EXPECT_NEAR(chain.critical_path(), sum, 1e-9);
}

TEST(Job, CriticalPathEmptyJob) {
  wf::Job job;
  EXPECT_DOUBLE_EQ(job.critical_path(), 0.0);
}

// -------------------------------------------------------------- countdown --

namespace {

/// Finishes `task` of job `job` and returns the tasks it released.
std::vector<wf::TaskId> finish(wf::Countdown& countdown, std::size_t job,
                               wf::TaskId task, bool* last = nullptr) {
  std::vector<wf::TaskId> ready;
  const bool was_last = countdown.finish(
      job, task, [&](wf::TaskId d) { ready.push_back(d); });
  if (last != nullptr) *last = was_last;
  return ready;
}

}  // namespace

TEST(Countdown, DependentsComeOutInAscendingOrder) {
  // Task 0's dependents are 1, 3 and 4; its finish releases the two with
  // no other unfinished dependency, in index order.
  wf::Job job;
  job.tasks.resize(5);
  job.tasks[1].deps = {0};
  job.tasks[3].deps = {2, 0};
  job.tasks[4].deps = {0};
  const std::vector<wf::Job> jobs = {job};
  wf::Countdown countdown(jobs);
  EXPECT_EQ(finish(countdown, 0, 0), (std::vector<wf::TaskId>{1, 4}));
  EXPECT_EQ(finish(countdown, 0, 2), (std::vector<wf::TaskId>{3}));
}

TEST(Countdown, DependencyListedTwiceCountsTwice) {
  wf::Job job;
  job.tasks.resize(3);
  job.tasks[2].deps = {0, 1, 0};
  const std::vector<wf::Job> jobs = {job};
  wf::Countdown countdown(jobs);
  EXPECT_TRUE(finish(countdown, 0, 1).empty());
  // One finish of task 0 pays both of its counts, and releases 2 once.
  EXPECT_EQ(finish(countdown, 0, 0), (std::vector<wf::TaskId>{2}));
}

TEST(Countdown, RejectsOutOfRangeAndSelfDependencies) {
  wf::Job ok;
  ok.tasks.resize(2);
  for (const wf::TaskId bad : {2u, 1u}) {  // out of range, then self
    wf::Job job;
    job.tasks.resize(2);
    job.tasks[1].deps = {0, bad};
    const std::vector<wf::Job> jobs = {ok, job};
    EXPECT_THROW(wf::Countdown{jobs}, std::invalid_argument) << bad;
  }
}

TEST(Countdown, FinishIsLastOnlyForEachJobsLastTask) {
  // Two jobs share the flat arrays; each one's count is its own.
  wf::Job chain;
  chain.tasks.resize(2);
  chain.tasks[1].deps = {0};
  wf::Job single;
  single.tasks.resize(1);
  const std::vector<wf::Job> jobs = {chain, single};
  wf::Countdown countdown(jobs);
  bool last = true;
  EXPECT_EQ(finish(countdown, 0, 0, &last), (std::vector<wf::TaskId>{1}));
  EXPECT_FALSE(last);
  EXPECT_TRUE(finish(countdown, 1, 0, &last).empty());
  EXPECT_TRUE(last);
  EXPECT_TRUE(finish(countdown, 0, 1, &last).empty());
  EXPECT_TRUE(last);
}

TEST(Workload, NormalizeSortsAndReindexes) {
  wf::Workload wl;
  wf::Job late;
  late.submit_time = 10.0;
  wf::Job early;
  early.submit_time = 1.0;
  wl.jobs = {late, early};
  wl.normalize();
  EXPECT_DOUBLE_EQ(wl.jobs[0].submit_time, 1.0);
  EXPECT_EQ(wl.jobs[0].id, 0u);
  EXPECT_EQ(wl.jobs[1].id, 1u);
}

// ------------------------------------------------------------- generators --

TEST(Generators, BagShapeAndBounds) {
  Rng rng(2);
  const auto bag = wf::make_bag_of_tasks(50, 1.0, 100.0, 1.5, rng);
  EXPECT_EQ(bag.size(), 50u);
  for (const auto& t : bag.tasks) {
    EXPECT_TRUE(t.deps.empty());
    EXPECT_GE(t.runtime, 1.0 - 1e-9);
    EXPECT_LE(t.runtime, 100.0 + 1e-9);
  }
}

TEST(Generators, ForkJoinShape) {
  Rng rng(2);
  const auto fj = wf::make_fork_join(8, 10.0, rng);
  EXPECT_EQ(fj.size(), 10u);  // source + 8 + sink
  EXPECT_NO_THROW(fj.validate());
  // Sink depends on all middle tasks.
  EXPECT_EQ(fj.tasks.back().deps.size(), 8u);
}

TEST(Generators, RandomDagValid) {
  Rng rng(2);
  const auto dag = wf::make_random_dag(4, 6, 3, 10.0, rng);
  EXPECT_EQ(dag.size(), 24u);
  EXPECT_NO_THROW(dag.validate());
}

TEST(Generators, PoissonGapsPositive) {
  Rng rng(3);
  wf::PoissonArrivals arrivals(2.0);
  for (int i = 0; i < 1'000; ++i) EXPECT_GE(arrivals.next_gap(0.0, rng), 0.0);
}

TEST(Generators, FlashcrowdRaisesRateInWindow) {
  Rng rng(3);
  wf::FlashcrowdArrivals arrivals(1.0, 10.0, 100.0, 200.0);
  double inside = 0.0;
  double outside = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    inside += arrivals.next_gap(150.0, rng);
    outside += arrivals.next_gap(50.0, rng);
  }
  // Mean gap inside the surge should be ~10x smaller.
  EXPECT_NEAR(outside / inside, 10.0, 1.0);
}

TEST(Generators, DiurnalVariesWithPhase) {
  Rng rng(3);
  wf::DiurnalArrivals arrivals(1.0, 0.9, 86'400.0);
  double peak = 0.0;
  double trough = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    peak += arrivals.next_gap(86'400.0 / 4.0, rng);     // sin = 1
    trough += arrivals.next_gap(3.0 * 86'400.0 / 4.0, rng);  // sin = -1
  }
  EXPECT_GT(trough / peak, 3.0);
}

// Property sweep over every workload class.
class WorkloadClassProps
    : public ::testing::TestWithParam<wf::WorkloadClass> {};

TEST_P(WorkloadClassProps, GeneratesValidNormalizedWorkload) {
  wf::WorkloadSpec spec;
  spec.cls = GetParam();
  spec.jobs = 60;
  spec.horizon = 5'000.0;
  spec.seed = 42;
  const auto wl = wf::generate(spec);
  ASSERT_EQ(wl.jobs.size(), 60u);
  double prev = -1.0;
  for (const auto& job : wl.jobs) {
    EXPECT_GE(job.submit_time, prev);
    prev = job.submit_time;
    EXPECT_FALSE(job.tasks.empty());
    EXPECT_NO_THROW(job.validate());
    EXPECT_EQ(job.user, wf::to_string(spec.cls));
  }
  EXPECT_GT(wl.total_work(), 0.0);
}

TEST_P(WorkloadClassProps, DeterministicForSeed) {
  wf::WorkloadSpec spec;
  spec.cls = GetParam();
  spec.jobs = 20;
  spec.seed = 7;
  const auto a = wf::generate(spec);
  const auto b = wf::generate(spec);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].submit_time, b.jobs[i].submit_time);
    EXPECT_EQ(a.jobs[i].tasks.size(), b.jobs[i].tasks.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, WorkloadClassProps,
    ::testing::Values(wf::WorkloadClass::kSynthetic,
                      wf::WorkloadClass::kScientific,
                      wf::WorkloadClass::kGaming,
                      wf::WorkloadClass::kComputerEng,
                      wf::WorkloadClass::kBusinessCritical,
                      wf::WorkloadClass::kIndustrial,
                      wf::WorkloadClass::kBigData),
    [](const auto& info) { return wf::to_string(info.param); });
