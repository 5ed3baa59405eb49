#include "atlarge/sched/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>

#include "atlarge/obs/observability.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/stats/rng.hpp"

namespace atlarge::sched {

namespace {

/// SplitMix64 finalizer; mixes a stream key into a seed so that the
/// (seed, candidate, round) triple maps to an independent RNG stream.
/// Keying streams by candidate *index* (not evaluation position) means
/// adding or removing one candidate never perturbs another candidate's
/// draw, and evaluation order — serial or parallel — is immaterial.
std::uint64_t mix_stream(std::uint64_t seed, std::uint64_t key) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (key + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

PortfolioScheduler::PortfolioScheduler(
    std::vector<std::unique_ptr<Policy>> policies, cluster::Environment env,
    PortfolioConfig config)
    : policies_(std::move(policies)),
      env_(std::move(env)),
      config_(config) {
  if (policies_.empty())
    throw std::invalid_argument("PortfolioScheduler: empty portfolio");
  ewma_.assign(policies_.size(), 0.0);
  evaluated_.assign(policies_.size(), false);
}

void PortfolioScheduler::order(std::vector<TaskRef>& queue,
                               const SchedState& state) {
  // The queue's prefix is the last order() call's output: a member can
  // build on it only if that call was its own.
  if (current_ == last_ordered_)
    return policies_[current_]->order(queue, state);
  last_ordered_ = current_;
  SchedState switched = state;
  switched.ordered = 0;
  policies_[current_]->order(queue, switched);
}

std::string PortfolioScheduler::current_policy() const {
  return policies_[current_]->name();
}

std::vector<std::size_t> PortfolioScheduler::candidate_set() const {
  std::vector<std::size_t> all(policies_.size());
  std::iota(all.begin(), all.end(), 0);
  if (config_.active_set == 0 || config_.active_set >= policies_.size())
    return all;
  // Never-evaluated policies rank first (exploration), then by EWMA utility.
  std::stable_sort(all.begin(), all.end(), [&](std::size_t a, std::size_t b) {
    if (evaluated_[a] != evaluated_[b]) return !evaluated_[a];
    return ewma_[a] < ewma_[b];
  });
  all.resize(config_.active_set);
  return all;
}

workflow::Workload PortfolioScheduler::build_snapshot(
    const std::vector<TaskRef>& queue) const {
  // Snapshot: the eligible tasks, grouped back into their jobs as
  // bags-of-tasks submitted at time zero. (The eligible frontier is what
  // an online portfolio can see; the remaining DAG structure is future
  // information. Grouping preserves job-level slowdown semantics — the
  // metric the real run is judged by — so task-level-greedy policies are
  // not systematically overrated.)
  //
  // The queue arrives in the applied policy's order; the snapshot takes
  // the first snapshot_cap tasks in arrival order, so what the candidates
  // are judged on does not depend on which policy ran last.
  workflow::Workload snapshot;
  snapshot.name = "snapshot";
  const auto arrival = arrival_order(queue);
  const std::size_t n = std::min(queue.size(), config_.snapshot_cap);
  std::map<std::uint64_t, workflow::Job> grouped;
  for (std::size_t k = 0; k < n; ++k) {
    const TaskRef& ref = queue[arrival[k]];
    auto& job = grouped[ref.job_id];
    if (job.tasks.empty()) job.user = std::to_string(ref.user);
    workflow::Task t;
    t.runtime = ref.runtime;
    t.cores = ref.cores;
    job.tasks.push_back(std::move(t));
  }
  snapshot.jobs.reserve(grouped.size());
  std::uint64_t next_id = 0;
  for (auto& [job_id, job] : grouped) {
    job.id = next_id++;
    job.submit_time = 0.0;
    snapshot.jobs.push_back(std::move(job));
  }
  return snapshot;
}

double PortfolioScheduler::evaluate(std::size_t pi,
                                    const workflow::Workload& snapshot,
                                    std::uint64_t round) const {
  auto probe = policies_[pi]->clone();
  const SchedResult r = simulate(env_, snapshot, *probe);
  double utility = r.mean_slowdown;
  if (config_.utility_noise > 0.0) {
    stats::Rng noise(mix_stream(mix_stream(config_.seed, pi), round));
    utility *= std::max(0.0, 1.0 + noise.normal(0.0, config_.utility_noise));
  }
  return utility;
}

double PortfolioScheduler::tick(const SchedState& state,
                                const std::vector<TaskRef>& queue) {
  if (queue.size() < std::max<std::size_t>(config_.min_queue_to_select, 1) ||
      state.now < next_decision_)
    return 0.0;

  if (config_.obs != nullptr)
    config_.obs->tracer.begin("portfolio.select", "sched", state.now);

  // Evaluate the incumbent first so that ties keep the current policy
  // (switching on a tie is pure churn).
  auto candidates = candidate_set();
  const auto incumbent =
      std::find(candidates.begin(), candidates.end(), current_);
  if (incumbent != candidates.end())
    std::rotate(candidates.begin(), incumbent, incumbent + 1);

  const workflow::Workload snapshot = build_snapshot(queue);
  const std::uint64_t round = round_++;

  // Phase 1 — measure: run every candidate's what-if simulation, each on a
  // cloned policy and its own RNG stream, all reading the one snapshot.
  // Utilities land in per-candidate slots, so thread scheduling cannot
  // affect the result.
  std::vector<double> utilities(candidates.size(), 0.0);
  const auto eval_one = [&](std::size_t ci) {
    utilities[ci] = evaluate(candidates[ci], snapshot, round);
  };
  const std::size_t threads =
      std::min(std::max<std::size_t>(config_.eval_threads, 1),
               candidates.size());
  if (threads > 1) {
    if (!pool_ || pool_->size() < threads)
      pool_ = std::make_unique<sim::ThreadPool>(threads);
    pool_->parallel_for(candidates.size(), eval_one);
  } else {
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) eval_one(ci);
  }

  // Phase 2 — reduce, serially in candidate order: EWMA updates and argmin
  // are order-sensitive, so this part is identical for any thread count.
  double best_utility = std::numeric_limits<double>::infinity();
  std::size_t best = current_;
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    const std::size_t pi = candidates[ci];
    const double utility = utilities[ci];
    if (!evaluated_[pi]) {
      ewma_[pi] = utility;
      evaluated_[pi] = true;
    } else {
      ewma_[pi] = config_.ewma_alpha * utility +
                  (1.0 - config_.ewma_alpha) * ewma_[pi];
    }
    if (utility < best_utility) {
      best_utility = utility;
      best = pi;
    }
  }
  current_ = best;
  ++selections_[policies_[current_]->name()];

  if (config_.obs != nullptr) {
    auto& m = config_.obs->metrics;
    m.counter("portfolio.rounds").add(1);
    m.counter("portfolio.what_if_sims").add(candidates.size());
    m.digest("portfolio.best_utility").add(best_utility);
    config_.obs->tracer.end("portfolio.select", "sched", state.now);
  }

  const double overhead =
      config_.cost_per_task_policy *
      static_cast<double>(candidates.size()) *
      static_cast<double>(std::min(queue.size(), config_.snapshot_cap));
  total_overhead_ += overhead;
  // The next selection is an interval after this one's simulations END;
  // anchoring it at the decision instant would re-trigger selection the
  // moment the scheduler unblocks whenever overhead > interval, and no
  // task would ever be placed.
  next_decision_ = state.now + overhead + config_.selection_interval;
  return overhead;
}

std::unique_ptr<Policy> PortfolioScheduler::clone() const {
  std::vector<std::unique_ptr<Policy>> copies;
  copies.reserve(policies_.size());
  for (const auto& p : policies_) copies.push_back(p->clone());
  // Clones never inherit the instrumentation plane: a cloned portfolio may
  // run inside another scheduler's parallel what-if evaluation, and the
  // plane is not thread-safe.
  PortfolioConfig config = config_;
  config.obs = nullptr;
  return std::make_unique<PortfolioScheduler>(std::move(copies), env_,
                                              config);
}

}  // namespace atlarge::sched
