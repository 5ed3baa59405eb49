#pragma once
// Scheduling-policy interface.
//
// The cluster simulator (simulator.hpp) maintains a queue of *eligible*
// tasks (arrived, all dependencies finished). A policy's single job is to
// order that queue; the simulator then places tasks greedily in queue
// order, optionally with EASY-style backfilling when the policy opts in.
// The queue persists across scheduling passes (see Policy::order), so a
// policy that sorts can reuse the order it left behind.
// This separation lets the portfolio scheduler (portfolio.hpp) treat every
// policy — including nested copies of itself — uniformly, which is exactly
// the property Section 6.6 of the paper needs: "simulate all the
// alternatives" online.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace atlarge::sched {

/// A queued, eligible task as seen by a policy. (job_id, task_id) is
/// unique within a simulator queue. Trivially copyable, so the simulator
/// moves runs of queue entries as single blocks.
struct TaskRef {
  std::uint64_t job_id = 0;
  std::uint32_t task_id = 0;
  /// The job's user as an id the simulator interns once per job, in
  /// first-seen order of Job::user; it indexes SchedState::user_usage.
  /// Ids are only ever compared for identity.
  std::uint32_t user = 0;
  double runtime = 0.0;       // reference-core runtime
  std::uint32_t cores = 1;
  double submit_time = 0.0;   // job submit time
  double eligible_time = 0.0; // when dependencies completed
  /// Arrival stamp: the simulator numbers tasks in the order they become
  /// eligible (job arrival, dependency unlock, crash requeue), so sorting
  /// by `seq` recovers arrival order however the queue was permuted.
  /// Consumers that need arrival order treat equal stamps (as in
  /// hand-built queues, where every stamp is 0) as "keep input order".
  std::uint64_t seq = 0;
};
static_assert(std::is_trivially_copyable_v<TaskRef>);

/// Positions of `queue`'s tasks in arrival order: by TaskRef::seq, equal
/// stamps in input order. For consumers that must not depend on the order
/// the last pass left the queue in.
std::vector<std::size_t> arrival_order(const std::vector<TaskRef>& queue);

/// Cluster state snapshot offered to policies at decision time.
struct SchedState {
  double now = 0.0;
  std::uint32_t total_cores = 0;
  std::uint32_t free_cores = 0;
  std::size_t running_tasks = 0;
  std::size_t queued_tasks = 0;
  /// Work (core-seconds) completed so far, indexed by TaskRef::user; an
  /// id past the end has completed none. Used by fair-share.
  std::span<const double> user_usage;
  /// How many leading queue entries are exactly what the previous order()
  /// call returned, minus the tasks placed since; the entries after them
  /// were appended since, in rising TaskRef::seq. 0 means unknown, as in
  /// hand-built states. The simulator fills it (DESIGN.md §5).
  std::size_t ordered = 0;
};

/// Base class for scheduling policies. Implementations must be
/// deterministic given their constructor arguments (randomized policies
/// take a seed).
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Orders the eligible queue in place; the simulator places tasks from
  /// the front. Called on every scheduling pass, including passes that
  /// cannot place anything. The queue is persistent: it arrives in the
  /// order the previous call left it (in a portfolio, possibly another
  /// policy's order), minus the tasks placed since, plus newly eligible
  /// tasks appended at the back; state.ordered says where that tail
  /// starts, when known. Must be a permutation (no adds/removes); the
  /// simulator throws std::logic_error otherwise.
  virtual void order(std::vector<TaskRef>& queue, const SchedState& state) = 0;

  /// When true, the simulator applies EASY backfilling: the head task
  /// reserves its earliest feasible start, and later tasks may jump the
  /// queue only if they do not delay that reservation.
  virtual bool backfilling() const { return false; }

  /// Called on every scheduling pass before order(), with the queue in
  /// the order the last order() call left it. Returns a decision
  /// overhead in seconds; the simulator delays placement by that amount.
  /// Default: zero (instant decisions). The portfolio scheduler uses this
  /// hook to run (and charge for) its nested simulations.
  virtual double tick(const SchedState& state,
                      const std::vector<TaskRef>& queue);

  /// Fresh instance with identical configuration, for nested simulation.
  virtual std::unique_ptr<Policy> clone() const = 0;
};

}  // namespace atlarge::sched
