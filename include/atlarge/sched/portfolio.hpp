#pragma once
// Portfolio scheduling (paper Section 6.6, Table 9).
//
// A portfolio scheduler holds a set of scheduling policies and, at run
// time, periodically *simulates* each policy on the current queue to pick
// the one to apply next. The paper's arc is reproduced faithfully:
//  * [114] simulate-all-policies selection works, but its simulation time
//    grows with #policies x queue length — with many-job workloads the
//    scheduler can "no longer be used to run online". We model this by
//    charging a configurable decision overhead per simulated policy-task
//    (Policy::tick), which delays placements.
//  * [115] the fix: an *active set* — only the top-K policies by recent
//    utility are simulated each round, trading decision quality for
//    decision latency.
//  * [120] mis-selection: when utility estimates are noisy (hard-to-predict
//    policy performance), the portfolio can pick sub-optimally; the
//    `utility_noise` knob reproduces that study.

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/sched/policy.hpp"
#include "atlarge/sim/thread_pool.hpp"
#include "atlarge/workflow/job.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::sched {

struct PortfolioConfig {
  /// Seconds between re-selections.
  double selection_interval = 500.0;
  /// Active-set size; 0 means simulate the full portfolio every round.
  std::size_t active_set = 0;
  /// Decision overhead charged per (policy x queued task) simulated, in
  /// seconds. 0 models an infinitely fast (offline-style) simulator.
  double cost_per_task_policy = 0.0;
  /// At most this many queued tasks enter each what-if snapshot.
  std::size_t snapshot_cap = 512;
  /// Selection only happens when at least this many tasks are queued:
  /// tiny queues make every policy look identical, and switching on such
  /// ties degrades the portfolio to whichever policy happens to be listed
  /// first.
  std::size_t min_queue_to_select = 4;
  /// Std-dev of multiplicative noise applied to utility estimates,
  /// reproducing the hard-to-predict-performance regime of [120]. Noise is
  /// drawn from a per-(candidate, round) RNG stream derived from `seed`, so
  /// draws are independent of evaluation order and of which other
  /// candidates are in the round.
  double utility_noise = 0.0;
  /// EWMA smoothing for per-policy utility history, in (0, 1].
  double ewma_alpha = 0.5;
  std::uint64_t seed = 7;
  /// Threads used to run the candidate what-if simulations of one tick()
  /// concurrently; 0 or 1 evaluates serially. Results are bitwise
  /// identical to the serial order for any thread count: every candidate
  /// gets a cloned policy and its own RNG stream, all candidates only read
  /// the round's one snapshot, and the selection reduction runs serially
  /// in candidate order.
  std::size_t eval_threads = 1;
  /// Optional instrumentation plane (not owned, may be null): emits a
  /// "portfolio.select" span per selection round plus round/what-if
  /// counters and a best-utility digest. Only touched from the serial
  /// sections of tick(), never from evaluation worker threads, and not
  /// inherited by clone() (a clone may be simulated on another thread).
  obs::Observability* obs = nullptr;
};

class PortfolioScheduler final : public Policy {
 public:
  /// The portfolio takes ownership of `policies` (must be non-empty) and
  /// keeps a copy of the environment for its what-if simulations.
  PortfolioScheduler(std::vector<std::unique_ptr<Policy>> policies,
                     cluster::Environment env, PortfolioConfig config = {});

  std::string name() const override { return "PORTFOLIO"; }
  void order(std::vector<TaskRef>& queue, const SchedState& state) override;
  double tick(const SchedState& state,
              const std::vector<TaskRef>& queue) override;
  std::unique_ptr<Policy> clone() const override;

  /// How often each policy won selection so far.
  const std::map<std::string, std::size_t>& selections() const noexcept {
    return selections_;
  }

  /// Total simulated decision overhead charged so far, seconds.
  double total_overhead() const noexcept { return total_overhead_; }

  /// Name of the currently applied policy.
  std::string current_policy() const;

 private:
  /// Indices of policies to simulate this round (full set or active set).
  std::vector<std::size_t> candidate_set() const;

  /// The first snapshot_cap eligible tasks in arrival order
  /// (TaskRef::seq), folded back into a bag-of-jobs what-if workload.
  workflow::Workload build_snapshot(const std::vector<TaskRef>& queue) const;

  /// Mean bounded slowdown of the snapshot under policy `pi`, with the
  /// round's noise applied. Thread-safe for distinct `pi`: works on a
  /// cloned policy and a per-(candidate, round) RNG stream, and only reads
  /// the shared snapshot (simulate takes it by const reference).
  double evaluate(std::size_t pi, const workflow::Workload& snapshot,
                  std::uint64_t round) const;

  std::vector<std::unique_ptr<Policy>> policies_;
  cluster::Environment env_;
  PortfolioConfig config_;
  std::unique_ptr<sim::ThreadPool> pool_;  // lazily built when needed

  std::size_t current_ = 0;
  // The member whose order() ran last (none yet: the maximum).
  std::size_t last_ordered_ = std::numeric_limits<std::size_t>::max();
  std::uint64_t round_ = 0;  // selection rounds so far; salts noise streams
  double next_decision_ = 0.0;
  std::vector<double> ewma_;      // smoothed utility per policy (lower=better)
  std::vector<bool> evaluated_;   // ever scored?
  std::map<std::string, std::size_t> selections_;
  double total_overhead_ = 0.0;
};

}  // namespace atlarge::sched
