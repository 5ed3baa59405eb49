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
/// submit time is finite, cores >= 1.
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

/// A workload: jobs sorted by nondecreasing submit time.
struct Workload {
  std::string name;
  std::vector<Job> jobs;

  double total_work() const noexcept;
  /// Sorts jobs by submit time (stable) and re-assigns contiguous ids.
  void normalize();
};

}  // namespace atlarge::workflow
