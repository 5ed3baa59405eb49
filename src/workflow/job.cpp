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

Countdown::Countdown(std::span<const Job> jobs) {
  base_.reserve(jobs.size());
  unfinished_.reserve(jobs.size());
  std::size_t tasks = 0;
  for (const Job& job : jobs) {
    base_.push_back(tasks);
    unfinished_.push_back(job.tasks.size());
    tasks += job.tasks.size();
  }
  // Counting sort of the edges by dependency: count each task's dependents
  // into first_[task + 1], prefix-sum, then fill in task order so each
  // task's dependents come out ascending.
  waiting_.assign(tasks, 0);
  first_.assign(tasks + 1, 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& job_tasks = jobs[j].tasks;
    for (std::size_t i = 0; i < job_tasks.size(); ++i) {
      for (TaskId dep : job_tasks[i].deps) {
        if (dep >= job_tasks.size())
          throw std::invalid_argument("Job: dependency index out of range");
        if (dep == i) throw std::invalid_argument("Job: self-dependency");
        ++first_[base_[j] + dep + 1];
        ++waiting_[base_[j] + i];
      }
    }
  }
  for (std::size_t t = 0; t < tasks; ++t) first_[t + 1] += first_[t];
  dependents_.resize(first_[tasks]);
  // Filling advances first_[dep] to the end of dep's range, which is where
  // dep + 1's begins: shifting first_ up one slot restores the offsets.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& job_tasks = jobs[j].tasks;
    for (std::size_t i = 0; i < job_tasks.size(); ++i)
      for (TaskId dep : job_tasks[i].deps)
        dependents_[first_[base_[j] + dep]++] = static_cast<TaskId>(i);
  }
  std::copy_backward(first_.begin(), first_.end() - 1, first_.end());
  first_[0] = 0;
}

std::vector<TaskId> Job::topological_order() const {
  // Kahn's algorithm with `order` as its FIFO: roots in index order, then
  // each unlocked task in the order the countdown releases it, which keeps
  // the order reproducible across runs.
  Countdown countdown(std::span(this, 1));
  std::vector<TaskId> order;
  order.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (tasks[i].deps.empty()) order.push_back(static_cast<TaskId>(i));
  for (std::size_t head = 0; head < order.size(); ++head)
    countdown.finish(0, order[head], [&](TaskId d) { order.push_back(d); });
  if (order.size() != tasks.size())
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
