// Tests for the cluster scheduling simulator and the policy zoo.

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string_view>

#include <gtest/gtest.h>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/workflow/generators.hpp"
#include "golden_util.hpp"

namespace sched = atlarge::sched;
namespace wf = atlarge::workflow;
namespace cluster = atlarge::cluster;

namespace {

wf::Workload single_task_jobs(std::initializer_list<double> runtimes,
                              double submit = 0.0) {
  wf::Workload wl;
  for (double r : runtimes) {
    wf::Job job;
    job.submit_time = submit;
    job.user = "u";
    job.tasks.push_back({r, 1, {}});
    wl.jobs.push_back(std::move(job));
  }
  wl.normalize();
  return wl;
}

}  // namespace

TEST(Simulator, SingleTaskRunsToCompletion) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish, 10.0);
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
  EXPECT_EQ(result.tasks_completed, 1u);
}

TEST(Simulator, SerialExecutionOnOneCore) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({5.0, 5.0, 5.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_DOUBLE_EQ(result.makespan, 15.0);
}

TEST(Simulator, ParallelExecutionUsesAllCores) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 3);
  auto wl = single_task_jobs({5.0, 5.0, 5.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  EXPECT_NEAR(result.utilization, 1.0, 1e-9);
}

TEST(Simulator, MachineSpeedScalesRuntime) {
  auto env = cluster::make_homogeneous_cluster("c", 1, 1, 2.0);  // 2x speed
  auto wl = single_task_jobs({10.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
}

TEST(Simulator, DependenciesRespected) {
  const auto env = cluster::make_homogeneous_cluster("c", 4, 4);
  wf::Workload wl;
  wf::Job job;
  job.submit_time = 0.0;
  job.tasks.push_back({3.0, 1, {}});
  job.tasks.push_back({2.0, 1, {0}});
  job.tasks.push_back({1.0, 1, {1}});
  wl.jobs.push_back(job);
  wl.normalize();
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);  // chain, despite free cores
}

TEST(Simulator, DependencyListedTwiceStillUnlocks) {
  // Job::validate accepts a repeated dependency; it counts twice, and the
  // one completion of task 0 pays both counts.
  const auto env = cluster::make_homogeneous_cluster("c", 1, 2);
  wf::Workload wl;
  wf::Job job;
  job.tasks.push_back({1.0, 1, {}});
  job.tasks.push_back({2.0, 1, {0, 0}});
  wl.jobs.push_back(job);
  wl.normalize();
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.tasks_completed, 2u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish, 3.0);
}

TEST(Simulator, GeoDispatchLatencyApplied) {
  // Two DCs of 1x1; two equal jobs. One runs remotely and pays latency.
  auto env = cluster::make_geo_distributed("g", 2, 1, 1, 0.5);
  auto wl = single_task_jobs({10.0, 10.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  double max_finish = 0.0;
  for (const auto& j : result.jobs) max_finish = std::max(max_finish, j.finish);
  EXPECT_DOUBLE_EQ(max_finish, 10.5);
}

TEST(Simulator, RejectsImpossibleTask) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  wf::Workload wl;
  wf::Job job;
  job.tasks.push_back({1.0, 8, {}});  // wider than any machine
  wl.jobs.push_back(job);
  sched::FcfsPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
}

TEST(Simulator, RejectsNanRuntime) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  auto wl = single_task_jobs({1.0, 2.0});
  wl.jobs[1].tasks[0].runtime = std::numeric_limits<double>::quiet_NaN();
  sched::SjfPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
}

TEST(Simulator, RejectsZeroCoreTask) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  auto wl = single_task_jobs({1.0, 2.0});
  wl.jobs[0].tasks[0].cores = 0;
  sched::FcfsPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
}

TEST(Simulator, RejectsDuplicateJobIds) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  auto wl = single_task_jobs({1.0, 2.0, 3.0});
  wl.jobs[2].id = wl.jobs[0].id;
  sched::FcfsPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
}

namespace {

/// Breaks the Policy::order contract by dropping the queue's last task.
class DroppingPolicy final : public sched::Policy {
 public:
  std::string name() const override { return "DROP"; }
  void order(std::vector<sched::TaskRef>& q,
             const sched::SchedState&) override {
    q.pop_back();
  }
  std::unique_ptr<sched::Policy> clone() const override {
    return std::make_unique<DroppingPolicy>();
  }
};

}  // namespace

TEST(Simulator, RejectsPolicyThatDropsQueuedTasks) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({1.0, 2.0});
  DroppingPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::logic_error);
}

TEST(Simulator, RejectsEmptyEnvironment) {
  cluster::Environment env;
  env.name = "empty";
  wf::Workload wl;
  sched::FcfsPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
}

TEST(Simulator, WaitTimeAccounted) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0, 10.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  // One job waits 10s, the other 0 -> mean 5.
  EXPECT_DOUBLE_EQ(result.mean_wait, 5.0);
}

TEST(Simulator, SlowdownBoundedBelowByOne) {
  const auto env = cluster::make_homogeneous_cluster("c", 4, 8);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kScientific;
  spec.jobs = 30;
  spec.seed = 3;
  auto wl = wf::generate(spec);
  sched::SjfPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  for (const auto& j : result.jobs) EXPECT_GE(j.slowdown(), 1.0);
}

TEST(Simulator, TimeLimitExcludesUnfinished) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0, 1'000.0});
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.time_limit = 100.0;
  const auto result = sched::simulate(env, wl, policy, options);
  EXPECT_EQ(result.jobs.size(), 1u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto env = cluster::make_multi_cluster("m", 2, 2, 4);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kBigData;
  spec.jobs = 40;
  spec.seed = 11;
  const auto wl = wf::generate(spec);
  sched::RandomPolicy p1(5);
  sched::RandomPolicy p2(5);
  const auto a = sched::simulate(env, wl, p1);
  const auto b = sched::simulate(env, wl, p2);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.mean_slowdown, b.mean_slowdown);
}

TEST(Simulator, SjfBeatsLjfOnMeanSlowdownUnderLoad) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 2);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kScientific;
  spec.jobs = 50;
  spec.horizon = 2'000.0;  // heavy load
  spec.seed = 5;
  const auto wl = wf::generate(spec);
  sched::SjfPolicy sjf;
  sched::LjfPolicy ljf;
  const auto a = sched::simulate(env, wl, sjf);
  const auto b = sched::simulate(env, wl, ljf);
  EXPECT_LT(a.mean_slowdown, b.mean_slowdown);
}

TEST(Simulator, BackfillingProtectsBlockedWideHead) {
  // 2-core machine. A long narrow task pins one core; a wide (2-core) job
  // becomes queue head but cannot fit; a stream of short narrow tasks
  // follows. Greedy FCFS starves the wide head (a narrow task grabs every
  // freed core); EASY's reservation stops backfills that would delay the
  // head, so the wide job runs as soon as the long task ends.
  const auto env = cluster::make_homogeneous_cluster("c", 1, 2);
  wf::Workload wl;
  wf::Job long_job;
  long_job.submit_time = 0.0;
  long_job.user = "long";
  long_job.tasks.push_back({100.0, 1, {}});
  wl.jobs.push_back(std::move(long_job));
  wf::Job wide;
  wide.submit_time = 1.0;
  wide.user = "wide";
  wide.tasks.push_back({10.0, 2, {}});
  wl.jobs.push_back(std::move(wide));
  for (int i = 0; i < 20; ++i) {
    wf::Job job;
    job.submit_time = 2.0;
    job.user = "narrow";
    job.tasks.push_back({5.0, 1, {}});
    wl.jobs.push_back(std::move(job));
  }
  wl.normalize();

  const auto wide_finish = [&](sched::Policy& policy) {
    const auto result = sched::simulate(env, wl, policy);
    for (const auto& j : result.jobs) {
      if (j.id == 1) return j.finish;
    }
    return -1.0;
  };
  sched::FcfsPolicy fcfs;
  sched::EasyBackfillingPolicy easy;
  const double fcfs_finish = wide_finish(fcfs);
  const double easy_finish = wide_finish(easy);
  EXPECT_LT(easy_finish, fcfs_finish);
  EXPECT_NEAR(easy_finish, 110.0, 1.0);  // starts right as the long task ends
}

TEST(Simulator, MachineBusySecondsSumsToWork) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 2);
  auto wl = single_task_jobs({3.0, 4.0, 5.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  double busy = 0.0;
  for (double b : result.machine_busy_seconds) busy += b;
  EXPECT_DOUBLE_EQ(busy, 12.0);
}

// ---------------------------------------------------------------- policies --

TEST(Policies, ZooHasSevenDistinctNames) {
  const auto zoo = sched::standard_policies();
  ASSERT_EQ(zoo.size(), 7u);
  std::map<std::string, int> names;
  for (const auto& p : zoo) ++names[p->name()];
  EXPECT_EQ(names.size(), 7u);
}

TEST(Policies, OrderIsPermutation) {
  const auto zoo = sched::standard_policies();
  std::vector<sched::TaskRef> queue;
  for (std::uint32_t i = 0; i < 10; ++i) {
    sched::TaskRef ref;
    ref.job_id = i;
    ref.task_id = 0;
    ref.runtime = static_cast<double>(10 - i);
    ref.cores = 1 + i % 3;
    ref.submit_time = static_cast<double>(i % 4);
    ref.user = i % 2;
    queue.push_back(ref);
  }
  sched::SchedState state;
  for (const auto& p : zoo) {
    auto q = queue;
    p->order(q, state);
    ASSERT_EQ(q.size(), queue.size()) << p->name();
    auto ids = [](const std::vector<sched::TaskRef>& v) {
      std::vector<std::uint64_t> out;
      for (const auto& r : v) out.push_back(r.job_id);
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(ids(q), ids(queue)) << p->name();
  }
}

TEST(Policies, SjfSortsByRuntime) {
  std::vector<sched::TaskRef> queue(3);
  queue[0].runtime = 5.0;
  queue[1].runtime = 1.0;
  queue[2].runtime = 3.0;
  sched::SjfPolicy policy;
  sched::SchedState state;
  policy.order(queue, state);
  EXPECT_DOUBLE_EQ(queue[0].runtime, 1.0);
  EXPECT_DOUBLE_EQ(queue[2].runtime, 5.0);
}

TEST(Policies, FairShareFavorsLeastServedUser) {
  std::vector<sched::TaskRef> queue(2);
  queue[0].user = 0;  // heavy
  queue[0].job_id = 0;
  queue[1].user = 1;  // light
  queue[1].job_id = 1;
  const std::vector<double> usage = {100.0, 1.0};
  sched::SchedState state;
  state.user_usage = usage;
  sched::FairSharePolicy policy;
  policy.order(queue, state);
  EXPECT_EQ(queue[0].user, 1u);
}

TEST(Policies, RandomIsSeedDeterministic) {
  std::vector<sched::TaskRef> queue(20);
  for (std::uint32_t i = 0; i < 20; ++i) queue[i].job_id = i;
  auto q1 = queue;
  auto q2 = queue;
  sched::RandomPolicy a(9);
  sched::RandomPolicy b(9);
  sched::SchedState state;
  a.order(q1, state);
  b.order(q2, state);
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(q1[i].job_id, q2[i].job_id);

  // The shuffle permutes arrival order (seq), not the order the queue
  // comes in: two permutations carrying the same stamps shuffle alike.
  for (std::uint32_t i = 0; i < 20; ++i) queue[i].seq = 100 + i;
  auto p1 = queue;
  auto p2 = queue;
  std::reverse(p2.begin(), p2.end());
  std::rotate(p2.begin(), p2.begin() + 7, p2.end());
  sched::RandomPolicy c(9);
  sched::RandomPolicy d(9);
  c.order(p1, state);
  d.order(p2, state);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(p1[i].job_id, p2[i].job_id);
    EXPECT_EQ(p1[i].seq, p2[i].seq);
  }
}

TEST(Policies, ArrivalOrderSortsBySeqAndKeepsTiesInInputOrder) {
  // Spans of one byte, several bytes and the full 64 bits, with repeats.
  std::mt19937_64 gen(7);
  for (const std::uint64_t span : {std::uint64_t{3}, std::uint64_t{200},
                                   std::uint64_t{1} << 20,
                                   ~std::uint64_t{0}}) {
    std::vector<sched::TaskRef> queue(300);
    for (auto& ref : queue) {
      ref.seq = span == ~std::uint64_t{0} ? gen() : 1000 + gen() % (span + 1);
    }
    queue[7].seq = queue[250].seq;  // a tie across the queue
    std::vector<std::size_t> expected(queue.size());
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return queue[a].seq < queue[b].seq;
                     });
    EXPECT_EQ(sched::arrival_order(queue), expected) << "span " << span;
  }
  EXPECT_TRUE(sched::arrival_order({}).empty());
}

// Every total-order zoo policy sorts to one permutation whatever order its
// queue arrives in; the simulator relies on this when it hands a policy
// the order the previous pass (or another portfolio member) left behind.
TEST(Policies, TotalOrderPoliciesIgnoreInputOrder) {
  std::mt19937_64 gen(2024);
  std::vector<sched::TaskRef> queue;
  for (std::uint64_t job = 0; job < 24; ++job) {
    const std::uint32_t tasks = 1 + static_cast<std::uint32_t>(gen() % 4);
    for (std::uint32_t t = 0; t < tasks; ++t) {
      sched::TaskRef ref;
      ref.job_id = job * 7 % 24;  // ids unrelated to arrival order
      ref.task_id = t;
      ref.runtime = static_cast<double>(1 + gen() % 5);  // many ties
      ref.cores = 1 + static_cast<std::uint32_t>(gen() % 3);
      ref.submit_time = static_cast<double>(gen() % 4);
      ref.eligible_time = ref.submit_time + static_cast<double>(gen() % 3);
      ref.seq = queue.size();
      ref.user = static_cast<std::uint32_t>(gen() % 3);  // 2 has no usage
      queue.push_back(ref);
    }
  }
  const std::vector<double> usage = {50.0, 5.0};
  sched::SchedState state;
  state.user_usage = usage;

  const auto ids = [](const std::vector<sched::TaskRef>& q) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    for (const auto& r : q) out.emplace_back(r.job_id, r.task_id);
    return out;
  };
  for (const auto& p : sched::standard_policies()) {
    if (p->name() == "RANDOM") continue;
    auto reference = queue;
    p->order(reference, state);
    // Shuffled inputs, plus the incremental case: the sorted output with
    // a few tasks moved to the back, as if they had just become eligible.
    std::vector<std::vector<sched::TaskRef>> inputs;
    for (int k = 0; k < 4; ++k) {
      inputs.push_back(queue);
      std::shuffle(inputs.back().begin(), inputs.back().end(), gen);
    }
    inputs.push_back(reference);
    auto& appended = inputs.back();
    for (std::size_t i : {std::size_t{3}, std::size_t{10}, std::size_t{0}})
      std::rotate(appended.begin() + static_cast<std::ptrdiff_t>(i),
                  appended.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  appended.end());
    for (auto& input : inputs) {
      p->order(input, state);
      EXPECT_EQ(ids(input), ids(reference)) << p->name();
    }
  }
}

TEST(Policies, CloneProducesSameBehavior) {
  sched::RandomPolicy original(13);
  auto clone = original.clone();
  std::vector<sched::TaskRef> q1(10);
  std::vector<sched::TaskRef> q2(10);
  for (std::uint32_t i = 0; i < 10; ++i) q1[i].job_id = q2[i].job_id = i;
  sched::SchedState state;
  original.order(q1, state);
  clone->order(q2, state);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(q1[i].job_id, q2[i].job_id);
}

TEST(Policies, DefaultTickIsFree) {
  sched::FcfsPolicy policy;
  sched::SchedState state;
  std::vector<sched::TaskRef> queue(3);
  EXPECT_DOUBLE_EQ(policy.tick(state, queue), 0.0);
}

// Safety property across all policies: no machine oversubscription and
// dependencies respected, verified via simulator invariants (completion
// of all tasks with per-job finish >= critical path).
class PolicySafety : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PolicySafety, AllJobsCompleteAndRespectBounds) {
  auto zoo = sched::standard_policies();
  auto& policy = *zoo[GetParam()];
  const auto env = cluster::make_multi_cluster("m", 2, 2, 8);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kBigData;
  spec.jobs = 30;
  spec.seed = 17;
  const auto wl = wf::generate(spec);
  const auto result = sched::simulate(env, wl, policy);
  ASSERT_EQ(result.jobs.size(), wl.jobs.size()) << policy.name();
  for (const auto& j : result.jobs) {
    EXPECT_GE(j.start, j.submit) << policy.name();
    // finish - start can't beat the critical path.
    EXPECT_GE(j.finish - j.start, j.critical_path - 1e-6) << policy.name();
  }
  EXPECT_LE(result.utilization, 1.0 + 1e-9) << policy.name();
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySafety,
                         ::testing::Range<std::size_t>(0, 7));

// Three users share one BigData workload. Every other golden runs a
// single user, so this pins how FAIR and the portfolio's what-if
// snapshots see user identity, byte for byte.
TEST(Policies, MultiUserRunsMatchGoldens) {
  auto wl = wf::generate({wf::WorkloadClass::kBigData, 60, 4000.0, 7});
  for (auto& job : wl.jobs) {
    job.user = "u";
    job.user += std::to_string(job.id % 3);
  }
  const auto env = cluster::make_homogeneous_cluster("Cl", 4, 8);

  std::map<std::string, sched::SchedResult> results;
  std::map<std::string, std::string> fingerprints;
  for (const auto& p : sched::standard_policies()) {
    auto r = sched::simulate(env, wl, *p);
    fingerprints[p->name()] = atlarge::golden::sched_fingerprint(r);
    results.emplace(p->name(), std::move(r));
  }
  sched::PortfolioScheduler portfolio(sched::standard_policies(), env);
  std::string fp =
      atlarge::golden::sched_fingerprint(sched::simulate(env, wl, portfolio));
  for (const auto& [name, count] : portfolio.selections())
    fp += " " + name + "=" + std::to_string(count);
  fingerprints["PORTFOLIO"] = fp;

  const std::map<std::string, std::string> expected = {
      {"EASY-BF",
       "jobs=60 mk=22667.478750744354 wait=8509.7945159389255 "
       "slow=11.103680196235491 p95=29.849904308606526 "
       "util=0.97787784515199461 tasks=5777 rq=0 inj=0 rec=0 wdig=n=60 "
       "min=0 max=17078.225399834071 h=53eb600057e46477 sdig=n=60 "
       "min=1.0000751982599829 max=39.013322630925217 "
       "h=e358d83f615d0d97"},
      {"FAIR",
       "jobs=60 mk=22557.978086810297 wait=7910.7856884272787 "
       "slow=11.393766224455412 p95=28.71375047027967 "
       "util=0.98265301117447412 tasks=5777 rq=0 inj=0 rec=0 wdig=n=60 "
       "min=0 max=16872.563311388429 h=7c637751007b8360 sdig=n=60 "
       "min=1.0565405285665341 max=36.663622938516568 "
       "h=1deab5b84975c57b"},
      {"FCFS",
       "jobs=60 mk=22667.478750744354 wait=8509.7945159389255 "
       "slow=11.103680196235491 p95=29.849904308606526 "
       "util=0.97787784515199461 tasks=5777 rq=0 inj=0 rec=0 wdig=n=60 "
       "min=0 max=17078.225399834071 h=53eb600057e46477 sdig=n=60 "
       "min=1.0000751982599829 max=39.013322630925217 "
       "h=e358d83f615d0d97"},
      {"LJF",
       "jobs=60 mk=22562.998689579639 wait=109.14828304555004 "
       "slow=20.466838325224316 p95=39.529717553015317 "
       "util=0.98243305004459502 tasks=5777 rq=0 inj=0 rec=0 wdig=n=60 "
       "min=0 max=2237.8690499893282 h=51c94eae8d68fbb2 sdig=n=60 "
       "min=7.7228895145970267 max=46.390248537622377 "
       "h=dcee6ea4928c34e"},
      {"PORTFOLIO",
       "jobs=60 mk=22716.617237233841 wait=8337.4449173059584 "
       "slow=11.22512692580756 p95=29.875097771478693 "
       "util=0.97575003984709463 tasks=5777 rq=0 inj=0 rec=0 wdig=n=60 "
       "min=0 max=16761.060773821057 h=843a096f5218959e sdig=n=60 "
       "min=1.1779341901822362 max=39.109868115546618 "
       "h=1225cd1457fc3c80 FAIR=9 FCFS=34 LJF=2"},
      {"RANDOM",
       "jobs=60 mk=22576.525268783214 wait=108.64482366133943 "
       "slow=19.706451700910872 p95=34.609487580147437 "
       "util=0.98184091740893198 tasks=5777 rq=0 inj=0 rec=0 wdig=n=60 "
       "min=0 max=752.86096363359184 h=649932954ea9b427 sdig=n=60 "
       "min=7.6814504316345449 max=45.016946410373308 "
       "h=dfbbbaf0d8de35a8"},
      {"SJF",
       "jobs=60 mk=23080.967214183835 wait=2.8987680779752005 "
       "slow=17.612940204843266 p95=28.288730020823106 "
       "util=0.96025717220021867 tasks=5777 rq=0 inj=0 rec=0 wdig=n=60 "
       "min=0 max=18.003369695241418 h=507156a9d746be9f sdig=n=60 "
       "min=8.0024048473174858 max=30.866445579272931 "
       "h=b6f67b43ebe117b5"},
      {"WIDE",
       "jobs=60 mk=22562.998689579639 wait=109.14828304555004 "
       "slow=20.466838325224316 p95=39.529717553015317 "
       "util=0.98243305004459502 tasks=5777 rq=0 inj=0 rec=0 wdig=n=60 "
       "min=0 max=2237.8690499893282 h=51c94eae8d68fbb2 sdig=n=60 "
       "min=7.7228895145970267 max=46.390248537622377 "
       "h=dcee6ea4928c34e"},
  };
  EXPECT_EQ(fingerprints, expected);
  // FAIR orders by per-user usage, so with three users it must not
  // collapse to FCFS.
  EXPECT_NE(results.at("FAIR").mean_slowdown,
            results.at("FCFS").mean_slowdown);
}

// ---------------------------------------------------------- observability --

TEST(Observability, SimulateEmitsKernelAndSchedulerTelemetry) {
  atlarge::obs::Observability plane;
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kScientific;
  spec.jobs = 10;
  spec.seed = 21;
  const auto wl = wf::generate(spec);
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.obs = &plane;
  const auto result = sched::simulate(env, wl, policy, options);

  const auto& counters = plane.metrics.counters();
  EXPECT_EQ(counters.at("sched.tasks_placed").value(),
            result.tasks_completed);
  EXPECT_GT(counters.at("sched.passes").value(), 0u);
  EXPECT_GT(counters.at("sim.events_fired").value(), 0u);
  // The engine pre-sizes its kernel for the workload's concurrent-event
  // ceiling, so the whole run never touches the system allocator.
  EXPECT_EQ(counters.at("sim.alloc_events").value(), 0.0);
  EXPECT_EQ(plane.metrics.digests().at("sched.task_wait").count(),
            result.tasks_completed);

  // The trace mixes kernel-layer and scheduler-layer spans.
  bool saw_kernel = false;
  bool saw_sched = false;
  for (const auto& rec : plane.tracer.records()) {
    if (std::string_view(rec.category) == "kernel") saw_kernel = true;
    if (std::string_view(rec.category) == "sched") saw_sched = true;
  }
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_sched);

  // Same run without the plane produces identical results: observation
  // must not perturb the simulation.
  sched::FcfsPolicy bare_policy;
  const auto bare = sched::simulate(env, wl, bare_policy);
  EXPECT_DOUBLE_EQ(bare.makespan, result.makespan);
  EXPECT_DOUBLE_EQ(bare.mean_slowdown, result.mean_slowdown);
}

// ----------------------------------------------------- fault injection --

TEST(Faults, CrashKillsAndRequeuesRunningTask) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0});
  atlarge::fault::FaultPlan plan;
  plan.add({2.0, atlarge::fault::FaultKind::kMachineCrash, 0, 3.0, 0.5});
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.faults = &plan;
  const auto result = sched::simulate(env, wl, policy, options);
  // The task loses its 2s of progress, waits out the 3s outage, and
  // reruns from scratch on the restarted machine: 5.0 + 10.0 = 15.0.
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish, 15.0);
  EXPECT_DOUBLE_EQ(result.makespan, 15.0);
  EXPECT_EQ(result.tasks_requeued, 1u);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.faults_recovered, 1u);  // the machine restarted
  EXPECT_EQ(result.tasks_completed, 1u);
}

TEST(Faults, SlowdownStretchesPlacementsMadeDuringTheWindow) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0});
  atlarge::fault::FaultPlan plan;
  // Injections attach before arrivals, so at t=0 the machine is already
  // limping at half speed when the task is placed: 10 / 0.5 = 20.
  plan.add({0.0, atlarge::fault::FaultKind::kSlowdown, 0, 30.0, 0.5});
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.faults = &plan;
  const auto result = sched::simulate(env, wl, policy, options);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish, 20.0);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.tasks_requeued, 0u);  // slowdowns never kill tasks
}

TEST(Faults, NullAndEmptyPlansKeepBaselineByteIdentical) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 2);
  auto wl = single_task_jobs({5.0, 7.0, 3.0});
  const auto run = [&](const atlarge::fault::FaultPlan* faults) {
    sched::FcfsPolicy policy;
    sched::SimOptions options;
    options.faults = faults;
    return sched::simulate(env, wl, policy, options);
  };
  const auto baseline = run(nullptr);
  const atlarge::fault::FaultPlan empty;
  const auto with_empty = run(&empty);
  EXPECT_EQ(baseline.makespan, with_empty.makespan);
  EXPECT_EQ(baseline.mean_wait, with_empty.mean_wait);
  EXPECT_EQ(baseline.utilization, with_empty.utilization);
  EXPECT_EQ(baseline.machine_busy_seconds, with_empty.machine_busy_seconds);
  EXPECT_EQ(with_empty.faults_injected, 0u);
  EXPECT_EQ(with_empty.tasks_requeued, 0u);
}
