#pragma once
// Elastic cloud simulator: workflows on an autoscaled machine pool.
//
// This is the in-silico arm of the paper's autoscaling experiments [128]:
// a pool of homogeneous machines grows and shrinks under an Autoscaler's
// control (with a provisioning delay on scale-up and drain-on-idle on
// scale-down), while a FIFO task scheduler runs workflow tasks on whatever
// machines exist. The simulator records the supply/demand curves for the
// elasticity metrics, per-job statistics for performance and deadline-SLA
// analysis, and machine rental intervals for the cost models.

#include <cstdint>
#include <vector>

#include "atlarge/autoscale/autoscaler.hpp"
#include "atlarge/autoscale/metrics.hpp"
#include "atlarge/obs/digest.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/workflow/job.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::autoscale {

struct ElasticConfig {
  std::uint32_t cores_per_machine = 4;
  std::uint32_t max_machines = 64;
  std::uint32_t min_machines = 1;
  double provisioning_delay = 60.0;  // s between request and availability
  double interval = 30.0;            // autoscaler decision period, s
  /// Deadline SLA: a job's deadline is submit + sla_factor*critical_path;
  /// <= 0 disables deadline accounting.
  double sla_factor = 4.0;
  /// Optional instrumentation plane (not owned, may be null): attaches the
  /// kernel observer, wraps the run in an "autoscale.run" span with one
  /// "autoscale.tick" span per decision, and records tick/machine-churn
  /// counters plus supply/demand core gauges and an
  /// "autoscale.job_slowdown" registry digest. When the plane carries a
  /// TimeSeries or SloMonitor, its sampling hook is attached to the
  /// kernel.
  obs::Observability* obs = nullptr;
  /// Optional fault plan (not owned, may be null), replayed through the
  /// kernel fault hook. The elastic pool interprets kMachineCrash: the
  /// target machine is lost (its rental ends, its running tasks are
  /// killed and re-queued); the autoscaler heals the capacity loss
  /// through ordinary provisioning. A null or empty plan keeps behaviour
  /// byte-identical.
  const fault::FaultPlan* faults = nullptr;
};

struct ElasticResult {
  std::vector<sched::JobStats> jobs;
  double makespan = 0.0;
  double mean_slowdown = 0.0;
  double median_slowdown = 0.0;
  double mean_response = 0.0;
  std::size_t deadline_violations = 0;
  std::size_t deadline_total = 0;
  /// Supply/demand curves in cores, one point per decision interval.
  std::vector<SupplyDemandPoint> series;
  ElasticityMetrics metrics;
  /// Rental duration of every machine instance ever provisioned, seconds;
  /// feeds cluster::CostModel::total_cost.
  std::vector<double> rentals;
  /// Fault outcomes (all zero with a null/empty plan). A recovery is a
  /// crash victim task successfully restarted on a surviving machine.
  std::size_t faults_injected = 0;
  std::size_t faults_recovered = 0;
  std::size_t tasks_requeued = 0;
  /// Mergeable percentile digest over per-job bounded slowdowns (same
  /// population as the exact mean/median fields above).
  obs::Digest slowdown_digest;
  double deadline_violation_rate() const noexcept {
    return deadline_total == 0
               ? 0.0
               : static_cast<double>(deadline_violations) /
                     static_cast<double>(deadline_total);
  }
};

/// Runs `workload` under `autoscaler` control. Invalid jobs (those
/// Job::validate rejects: an out-of-range or self dependency, a cycle, a
/// non-finite or non-positive runtime) and tasks wider than one machine
/// are rejected with std::invalid_argument. Deterministic.
ElasticResult run_elastic(const workflow::Workload& workload,
                          Autoscaler& autoscaler,
                          const ElasticConfig& config = {});

}  // namespace atlarge::autoscale
