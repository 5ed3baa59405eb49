#include "atlarge/workflow/job.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace atlarge::workflow {

double Job::total_work() const noexcept {
  double work = 0.0;
  for (const auto& t : tasks) work += t.runtime * t.cores;
  return work;
}

std::vector<TaskId> Job::topological_order() const {
  const std::size_t n = tasks.size();
  std::vector<std::uint32_t> indegree(n, 0);
  std::vector<std::vector<TaskId>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskId dep : tasks[i].deps) {
      if (dep >= n)
        throw std::invalid_argument("Job: dependency index out of range");
      if (dep == i) throw std::invalid_argument("Job: self-dependency");
      children[dep].push_back(static_cast<TaskId>(i));
      ++indegree[i];
    }
  }
  std::vector<TaskId> order;
  order.reserve(n);
  // Kahn's algorithm; a deterministic FIFO over task index keeps the order
  // reproducible across runs.
  std::vector<TaskId> frontier;
  for (std::size_t i = 0; i < n; ++i)
    if (indegree[i] == 0) frontier.push_back(static_cast<TaskId>(i));
  std::size_t head = 0;
  while (head < frontier.size()) {
    const TaskId u = frontier[head++];
    order.push_back(u);
    for (TaskId v : children[u]) {
      if (--indegree[v] == 0) frontier.push_back(v);
    }
  }
  if (order.size() != n)
    throw std::invalid_argument("Job: dependency graph has a cycle");
  return order;
}

double Job::critical_path() const {
  if (tasks.empty()) return 0.0;
  const auto order = topological_order();
  std::vector<double> finish(tasks.size(), 0.0);
  double longest = 0.0;
  for (TaskId u : order) {
    double start = 0.0;
    for (TaskId dep : tasks[u].deps) start = std::max(start, finish[dep]);
    finish[u] = start + tasks[u].runtime;
    longest = std::max(longest, finish[u]);
  }
  return longest;
}

void Job::validate() const {
  if (!std::isfinite(submit_time))
    throw std::invalid_argument("Job: submit time must be finite");
  for (const auto& t : tasks) {
    // A NaN runtime would break the strict weak ordering every
    // scheduling-policy comparator relies on.
    if (!std::isfinite(t.runtime) || t.runtime <= 0.0)
      throw std::invalid_argument(
          "Job: task runtime must be positive and finite");
    if (t.cores == 0)
      throw std::invalid_argument("Job: task must require >= 1 core");
  }
  (void)topological_order();  // throws on cycles / bad edges
}

double Workload::total_work() const noexcept {
  double work = 0.0;
  for (const auto& j : jobs) work += j.total_work();
  return work;
}

void Workload::normalize() {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const Job& a, const Job& b) {
                     return a.submit_time < b.submit_time;
                   });
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = i;
}

}  // namespace atlarge::workflow
