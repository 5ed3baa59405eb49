#pragma once
// Job, task, and workflow (DAG) model.
//
// The portfolio-scheduling (Section 6.6) and autoscaling (Section 6.7)
// experiments both run on workloads of bags-of-tasks and workflows: a job is
// a set of tasks with precedence constraints; a bag-of-tasks is the special
// case with no constraints. Tasks have a service demand in core-seconds and
// a degree of parallelism; precedence edges form a DAG, validated at
// construction time.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace atlarge::workflow {

using TaskId = std::uint32_t;

/// One schedulable unit of work.
struct Task {
  double runtime = 1.0;       // seconds on `cores` cores (not scaled further)
  std::uint32_t cores = 1;    // simultaneous cores required
  std::vector<TaskId> deps;   // indices of tasks that must finish first
};

/// A job: a DAG of tasks submitted at a point in simulated time.
///
/// Invariants (enforced by Job::validate, called by the generators and by
/// the simulators on ingest): every dependency index is in range, the
/// dependency graph is acyclic, runtimes are positive and finite, the
/// submit time is finite, cores >= 1. A dependency listed twice is an
/// edge counted twice: the task waits for two finishes of the same task,
/// and its dependency's one finish pays both.
struct Job {
  std::uint64_t id = 0;
  double submit_time = 0.0;
  std::string user;           // workload class or tenant label
  std::vector<Task> tasks;

  std::size_t size() const noexcept { return tasks.size(); }

  /// Total service demand in core-seconds.
  double total_work() const noexcept;

  /// Length of the critical path in seconds (0 for empty jobs).
  /// Requires a valid (acyclic) job.
  double critical_path() const;

  /// Topological order of task indices; throws std::invalid_argument if the
  /// dependency graph has a cycle or an out-of-range edge.
  std::vector<TaskId> topological_order() const;

  /// Validates all invariants; throws std::invalid_argument on violation.
  void validate() const;
};

/// The one DAG walk of every workflow engine and of topological_order():
/// indexes each task's dependents once, in task order, and counts each
/// task's unfinished dependencies (a dependency listed twice counts twice).
/// Jobs are named by their index in the span, tasks by their TaskId; all
/// jobs share flat arrays indexed by a per-job base offset.
class Countdown {
 public:
  /// Throws std::invalid_argument on an out-of-range or self dependency.
  explicit Countdown(std::span<const Job> jobs);

  /// Marks task `task` of job `job` finished: calls ready(d) for each
  /// dependent d whose last unfinished dependency this was, in ascending
  /// d, and returns true when it was the job's last unfinished task. Each
  /// task finishes at most once.
  template <class Ready>
  bool finish(std::size_t job, TaskId task, Ready&& ready) {
    const std::size_t base = base_[job];
    const std::size_t at = base + task;
    for (std::size_t e = first_[at]; e < first_[at + 1]; ++e) {
      const TaskId d = dependents_[e];
      if (--waiting_[base + d] == 0) ready(d);
    }
    return --unfinished_[job] == 0;
  }

 private:
  std::vector<std::size_t> base_;        // per job: flat index of task 0
  std::vector<std::size_t> unfinished_;  // per job: tasks not yet finished
  std::vector<std::uint32_t> waiting_;   // per task: unfinished deps
  std::vector<std::size_t> first_;       // per task, +1: into dependents_
  std::vector<TaskId> dependents_;       // per task: dependents, ascending
};

/// A workload: jobs sorted by nondecreasing submit time.
struct Workload {
  std::string name;
  std::vector<Job> jobs;

  double total_work() const noexcept;
  /// Sorts jobs by submit time (stable) and re-assigns contiguous ids.
  void normalize();
};

}  // namespace atlarge::workflow
