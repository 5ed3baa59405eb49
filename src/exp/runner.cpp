#include "atlarge/exp/runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

#include "atlarge/obs/observability.hpp"
#include "atlarge/sim/thread_pool.hpp"

namespace atlarge::exp {
namespace {

/// Round-trips a double through the store's JSON number format (%.12g),
/// so in-memory results and results replayed from disk are bitwise
/// identical — the property that makes fresh, memoized, and resumed
/// aggregates byte-identical. Non-finite values (which JSON cannot carry)
/// collapse to 0.
double canonical(double v) {
  if (!std::isfinite(v)) return 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return std::strtod(buf, nullptr);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TrialRunner::TrialRunner(const SimulatorAdapter& adapter, ResultStore& store,
                         RunnerConfig config)
    : adapter_(&adapter), store_(&store), config_(config) {
  if (config_.threads == 0) config_.threads = 1;
  if (!(config_.scale > 0.0) || config_.scale > 1.0)
    throw std::invalid_argument("TrialRunner: scale must be in (0, 1]");
}

std::vector<std::optional<TrialRecord>> TrialRunner::run(
    const std::vector<TrialTask>& tasks) {
  const auto t0 = std::chrono::steady_clock::now();
  stats_.requested += tasks.size();

  // Classify in task order: memo hits, new work (first occurrence of each
  // missing key), duplicates of pending work, and — beyond the
  // max_executed cap — skips.
  std::vector<std::size_t> job_task;  // task index of each executed job
  std::unordered_map<std::string, std::size_t> pending;  // key -> job slot
  std::size_t memo_hits = 0;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TrialTask& task = tasks[i];
    if (store_->lookup(task.key)) {
      ++memo_hits;
      continue;
    }
    if (pending.count(task.key)) {
      ++memo_hits;  // shares a job already scheduled in this run
      continue;
    }
    if (config_.max_executed != 0 && job_task.size() >= config_.max_executed) {
      ++skipped;
      continue;
    }
    pending.emplace(task.key, job_task.size());
    job_task.push_back(i);
  }

  // Fan the new work out. Workers write only their private slots; the
  // store and the obs plane are untouched until after the join.
  struct JobResult {
    TrialResult result;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };
  std::vector<JobResult> results(job_task.size());
  if (!job_task.empty()) {
    const auto body = [&](std::size_t j) {
      const TrialTask& task = tasks[job_task[j]];
      JobResult& slot = results[j];
      slot.start_ms = ms_since(t0);
      slot.result = adapter_->run(task.values, task.seed, config_.scale);
      slot.result.objective = canonical(slot.result.objective);
      for (auto& [name, value] : slot.result.metrics)
        value = canonical(value);
      slot.end_ms = ms_since(t0);
    };
    if (config_.threads > 1 && job_task.size() > 1) {
      sim::ThreadPool pool(config_.threads);
      pool.parallel_for(job_task.size(), body);
    } else {
      for (std::size_t j = 0; j < job_task.size(); ++j) body(j);
    }
  }

  // Serial commit in enumeration order: identical store contents (and
  // JSONL bytes, for a fresh store) at every thread count.
  const auto params = adapter_->params();
  for (std::size_t j = 0; j < job_task.size(); ++j) {
    const TrialTask& task = tasks[job_task[j]];
    TrialRecord record;
    record.key = task.key;
    record.objective = results[j].result.objective;
    record.metrics = std::move(results[j].result.metrics);
    // Exact round-trip by construction (Digest::serialize is %.17g +
    // integer buckets), so no canonicalization pass is needed here.
    record.digest = std::move(results[j].result.digest);
    TrialRowContext context;
    context.domain = adapter_->domain();
    context.repeat = task.repeat;
    context.seed = task.seed;
    for (std::size_t p = 0; p < params.size() && p < task.labels.size(); ++p)
      context.params.emplace_back(params[p].name, task.labels[p]);
    store_->append(record, context);
  }

  // Instrumentation, serially, after the join.
  if (config_.obs != nullptr) {
    obs::Observability& plane = *config_.obs;
    plane.metrics.counter("exp.trials_requested").add(tasks.size());
    plane.metrics.counter("exp.trials_executed").add(job_task.size());
    plane.metrics.counter("exp.trials_memoized").add(memo_hits);
    plane.metrics.counter("exp.trials_skipped").add(skipped);
    plane.metrics.gauge("exp.threads")
        .set(static_cast<double>(config_.threads));
    auto& wall = plane.metrics.digest("exp.trial_wall_ms");
    plane.tracer.begin("exp.run", "exp", 0.0);
    for (const JobResult& job : results) {
      wall.add(job.end_ms - job.start_ms);
      plane.tracer.begin("exp.trial", "exp", job.start_ms / 1e3);
      plane.tracer.end("exp.trial", "exp", job.end_ms / 1e3);
    }
    plane.tracer.end("exp.run", "exp", ms_since(t0) / 1e3);
  }

  stats_.executed += job_task.size();
  stats_.memoized += memo_hits;
  stats_.skipped += skipped;

  std::vector<std::optional<TrialRecord>> out;
  out.reserve(tasks.size());
  for (const TrialTask& task : tasks) {
    const TrialRecord* record = store_->lookup(task.key);
    if (record) out.emplace_back(*record);
    else out.emplace_back(std::nullopt);  // skipped by the cap
  }
  stats_.wall_ms += ms_since(t0);
  return out;
}

}  // namespace atlarge::exp
