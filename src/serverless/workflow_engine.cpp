#include "atlarge/serverless/workflow_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/descriptive.hpp"

namespace atlarge::serverless {
namespace {

/// A container instance of one function: busy until free_at, evicted at
/// expire_at unless reused.
struct WarmSlot {
  double free_at = 0.0;
  double expire_at = 0.0;
};

class WorkflowRunner {
 public:
  WorkflowRunner(const std::vector<FunctionSpec>& registry,
                 const std::vector<workflow::Job>& jobs,
                 const PlatformConfig& platform,
                 const OrchestratorConfig& orchestrator)
      : registry_(registry),
        jobs_(jobs),
        platform_(platform),
        orch_(orchestrator),
        pools_(registry.size()),
        countdown_(jobs) {
    for (const auto& job : jobs_) {
      job.validate();
      for (const auto& t : job.tasks) {
        if (t.cores == 0 || t.cores > registry_.size())
          throw std::invalid_argument(
              "run_workflows: task.cores must be a 1-based registry index");
      }
    }
  }

  WorkflowEngineResult run() {
    states_.resize(jobs_.size());
    // Pre-size the kernel: one submit event per job plus at most two
    // in-flight events per task (execute + complete timers).
    std::size_t total_tasks = 0;
    for (const auto& job : jobs_) total_tasks += job.tasks.size();
    sim_.reserve(jobs_.size() + 2 * total_tasks + 8);
    for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
      sim_.schedule_at(jobs_[ji].submit_time, [this, ji] {
        for (std::size_t ti = 0; ti < jobs_[ji].tasks.size(); ++ti) {
          if (jobs_[ji].tasks[ti].deps.empty()) dispatch(ji, ti);
        }
      });
    }
    sim_.run();
    finalize();
    return std::move(result_);
  }

 private:
  struct JobRun {
    std::size_t cold_steps = 0;
    double finish = 0.0;
  };

  /// Time at which the orchestrator actually issues a dispatch decided at
  /// `ready`: external orchestrators align to their polling grid.
  double orchestrate(double ready) {
    double issue = ready + orch_.step_overhead;
    if (orch_.kind == OrchestratorKind::kExternalPolling &&
        orch_.poll_interval > 0.0) {
      const double aligned =
          std::ceil(ready / orch_.poll_interval) * orch_.poll_interval;
      issue = std::max(issue, aligned + orch_.step_overhead);
    }
    result_.orchestration_overhead += issue - ready;
    return issue;
  }

  void dispatch(std::size_t ji, std::size_t ti) {
    const double issue = orchestrate(sim_.now());
    sim_.schedule_at(issue, [this, ji, ti] { execute(ji, ti); });
  }

  void execute(std::size_t ji, std::size_t ti) {
    const auto f = static_cast<std::size_t>(jobs_[ji].tasks[ti].cores) - 1;
    const auto& spec = registry_[f];
    auto& pool = pools_[f];
    const double now = sim_.now();

    // Evict expired containers.
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [&](const WarmSlot& s) {
                                return s.expire_at <= now &&
                                       s.free_at <= now;
                              }),
               pool.end());

    // Reuse a warm, idle container if one exists.
    auto slot = std::find_if(pool.begin(), pool.end(), [&](const WarmSlot& s) {
      return s.free_at <= now && s.expire_at > now;
    });
    bool cold = false;
    double start = now;
    if (slot == pool.end()) {
      cold = true;
      start = now + spec.cold_start;
      pool.push_back(WarmSlot{});
      slot = pool.end() - 1;
    }
    const double finish = start + spec.exec_time;
    slot->free_at = finish;
    slot->expire_at = finish + platform_.keep_alive;
    if (cold) ++states_[ji].cold_steps;

    sim_.schedule_at(finish, [this, ji, ti] { complete(ji, ti); });
  }

  void complete(std::size_t ji, std::size_t ti) {
    if (countdown_.finish(ji, static_cast<workflow::TaskId>(ti),
                          [&](workflow::TaskId d) { dispatch(ji, d); }))
      states_[ji].finish = sim_.now();
  }

  void finalize() {
    std::vector<double> makespans;
    std::size_t cold = 0;
    std::size_t steps = 0;
    for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
      WorkflowRunStats stats;
      stats.submit = jobs_[ji].submit_time;
      stats.finish = states_[ji].finish;
      stats.steps = jobs_[ji].tasks.size();
      stats.cold_steps = states_[ji].cold_steps;
      makespans.push_back(stats.makespan());
      cold += stats.cold_steps;
      steps += stats.steps;
      result_.runs.push_back(stats);
    }
    result_.mean_makespan = stats::mean(makespans);
    result_.p95_makespan = stats::quantile(makespans, 0.95);
    result_.cold_fraction =
        steps == 0 ? 0.0
                   : static_cast<double>(cold) / static_cast<double>(steps);
  }

  const std::vector<FunctionSpec>& registry_;
  const std::vector<workflow::Job>& jobs_;
  PlatformConfig platform_;
  OrchestratorConfig orch_;
  sim::Simulation sim_;
  std::vector<std::vector<WarmSlot>> pools_;
  workflow::Countdown countdown_;  // indexed like jobs_
  std::vector<JobRun> states_;
  WorkflowEngineResult result_;
};

}  // namespace

WorkflowEngineResult run_workflows(const std::vector<FunctionSpec>& registry,
                                   const std::vector<workflow::Job>& jobs,
                                   const PlatformConfig& platform,
                                   const OrchestratorConfig& orchestrator) {
  WorkflowRunner runner(registry, jobs, platform, orchestrator);
  return runner.run();
}

std::vector<FunctionSpec> uniform_registry(std::size_t n, double exec_time,
                                           double cold_start) {
  std::vector<FunctionSpec> registry;
  registry.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    registry.push_back(FunctionSpec{"fn" + std::to_string(i), exec_time,
                                    cold_start, 128.0});
  }
  return registry;
}

workflow::Job make_chain_workflow(std::size_t steps, std::size_t functions,
                                  double submit_time) {
  workflow::Job job;
  job.submit_time = submit_time;
  for (std::size_t i = 0; i < steps; ++i) {
    workflow::Task t;
    t.runtime = 1.0;  // ignored; exec_time comes from the registry
    t.cores = static_cast<std::uint32_t>(
        1 + i % std::max<std::size_t>(functions, 1));
    if (i > 0) t.deps.push_back(static_cast<workflow::TaskId>(i - 1));
    job.tasks.push_back(std::move(t));
  }
  return job;
}

workflow::Job make_fanout_workflow(std::size_t width, std::size_t functions,
                                   double submit_time) {
  workflow::Job job;
  job.submit_time = submit_time;
  const auto fn = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        1 + i % std::max<std::size_t>(functions, 1));
  };
  workflow::Task source;
  source.runtime = 1.0;
  source.cores = fn(0);
  job.tasks.push_back(std::move(source));
  for (std::size_t i = 0; i < width; ++i) {
    workflow::Task t;
    t.runtime = 1.0;
    t.cores = fn(i + 1);
    t.deps.push_back(0);
    job.tasks.push_back(std::move(t));
  }
  workflow::Task sink;
  sink.runtime = 1.0;
  sink.cores = fn(width + 1);
  for (std::size_t i = 0; i < width; ++i)
    sink.deps.push_back(static_cast<workflow::TaskId>(i + 1));
  job.tasks.push_back(std::move(sink));
  return job;
}

}  // namespace atlarge::serverless
