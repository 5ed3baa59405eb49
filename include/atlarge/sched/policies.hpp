#pragma once
// The scheduler zoo: the single-policy baselines a portfolio selects from.
// The paper's portfolio studies (Table 9) found "no individual technique or
// policy was consistently better than all others" — the zoo is intentionally
// diverse so that finding can re-emerge: queue-order policies (FCFS/LIFO),
// size-based (SJF/LJF/WideFirst), backfilling, randomized, and fair-share.

#include <cstdint>

#include "atlarge/sched/policy.hpp"
#include "atlarge/stats/rng.hpp"

namespace atlarge::sched {

/// First-come-first-served: by job submit time, then eligibility time.
class FcfsPolicy final : public Policy {
 public:
  std::string name() const override { return "FCFS"; }
  void order(std::vector<TaskRef>& q, const SchedState& s) override;
  std::unique_ptr<Policy> clone() const override;
};

/// FCFS with EASY backfilling.
class EasyBackfillingPolicy final : public Policy {
 public:
  std::string name() const override { return "EASY-BF"; }
  void order(std::vector<TaskRef>& q, const SchedState& s) override;
  bool backfilling() const override { return true; }
  std::unique_ptr<Policy> clone() const override;
};

/// Shortest task first (by reference runtime).
class SjfPolicy final : public Policy {
 public:
  std::string name() const override { return "SJF"; }
  void order(std::vector<TaskRef>& q, const SchedState& s) override;
  std::unique_ptr<Policy> clone() const override;
};

/// Longest task first; good for utilization under heavy tails, bad for
/// mean slowdown.
class LjfPolicy final : public Policy {
 public:
  std::string name() const override { return "LJF"; }
  void order(std::vector<TaskRef>& q, const SchedState& s) override;
  std::unique_ptr<Policy> clone() const override;
};

/// Widest task first (most cores), a packing heuristic for multi-core
/// tasks (business-critical workloads).
class WideFirstPolicy final : public Policy {
 public:
  std::string name() const override { return "WIDE"; }
  void order(std::vector<TaskRef>& q, const SchedState& s) override;
  std::unique_ptr<Policy> clone() const override;
};

/// Uniformly random order; Altshuller's "performance vs random design"
/// baseline (paper, challenge C2). Each order() call draws a fresh
/// shuffle of the queue in arrival order (TaskRef::seq), so the result
/// does not depend on the order the previous pass left. The instance
/// keeps that arrival order and its last shuffle, so with
/// SchedState::ordered set a call drops the placed tasks and appends the
/// new tail instead of re-sorting the queue; clones start empty.
class RandomPolicy final : public Policy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 42) : rng_(seed), seed_(seed) {}
  std::string name() const override { return "RANDOM"; }
  void order(std::vector<TaskRef>& q, const SchedState& s) override;
  std::unique_ptr<Policy> clone() const override;

 private:
  /// Brings arrivals_ up to date with q incrementally; false when the
  /// first `ordered` entries of q are not the last output minus the
  /// tasks placed since.
  bool follow(const std::vector<TaskRef>& q, std::size_t ordered);

  atlarge::stats::Rng rng_;
  std::uint64_t seed_;
  std::vector<TaskRef> arrivals_;     // the queue in arrival order
  std::vector<std::size_t> shuffle_;  // last output was arrivals_[shuffle_[k]]
  std::vector<std::size_t> gone_;     // scratch: arrival ranks placed since
};

/// Fair-share: tasks of the least-served user first, by the core-seconds
/// SchedState::user_usage holds at their TaskRef::user id (an id past its
/// end has used none), then FCFS. Each lookup is one array index. Usage
/// moves between calls, so SchedState::ordered is trusted only while
/// user_usage holds at most one user.
class FairSharePolicy final : public Policy {
 public:
  std::string name() const override { return "FAIR"; }
  void order(std::vector<TaskRef>& q, const SchedState& s) override;
  std::unique_ptr<Policy> clone() const override;
};

/// All zoo policies, freshly constructed — the default portfolio.
std::vector<std::unique_ptr<Policy>> standard_policies(
    std::uint64_t random_seed = 42);

}  // namespace atlarge::sched
