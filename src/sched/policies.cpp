#include "atlarge/sched/policies.hpp"

#include <algorithm>
#include <array>
#include <numeric>

namespace atlarge::sched {
namespace {

/// Stable tie-break: job id then task id, so every policy is a total order
/// and simulation stays deterministic.
bool by_identity(const TaskRef& a, const TaskRef& b) {
  if (a.job_id != b.job_id) return a.job_id < b.job_id;
  return a.task_id < b.task_id;
}

/// Sorts `q` by `less`, keeping the work the previous pass did: the
/// still-sorted prefix stays put, only the rest (typically the tasks
/// appended since) is sorted, and the two runs are merged. Every zoo
/// comparator is a strict total order over distinct (job, task) pairs, so
/// the result is the one sorted permutation whatever order `q` arrived in.
template <class Less>
void sort_incremental(std::vector<TaskRef>& q, Less less) {
  const auto tail = std::is_sorted_until(q.begin(), q.end(), less);
  if (tail == q.end()) return;
  std::sort(tail, q.end(), less);
  std::inplace_merge(q.begin(), tail, q.end(), less);
}

}  // namespace

std::vector<std::size_t> arrival_order(const std::vector<TaskRef>& queue) {
  // Stable LSD radix sort of positions by seq - min(seq), one byte per
  // pass up to the stamps' span: linear in the queue length. RandomPolicy
  // calls this on every pass, on a queue its own last shuffle scrambled,
  // where a comparison sort was its largest cost. Stability keeps equal
  // stamps in input order.
  std::vector<std::size_t> order(queue.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (queue.empty()) return order;
  const auto [lo, hi] = std::minmax_element(
      queue.begin(), queue.end(),
      [](const TaskRef& a, const TaskRef& b) { return a.seq < b.seq; });
  const std::uint64_t base = lo->seq;
  const std::uint64_t span = hi->seq - base;
  std::vector<std::size_t> sorted(queue.size());
  for (unsigned shift = 0; shift < 64 && (span >> shift) != 0; shift += 8) {
    const auto digit = [&](std::size_t i) {
      return static_cast<std::size_t>(((queue[i].seq - base) >> shift) & 0xff);
    };
    std::array<std::size_t, 257> start{};
    for (const std::size_t i : order) ++start[digit(i) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const std::size_t i : order) sorted[start[digit(i)]++] = i;
    order.swap(sorted);
  }
  return order;
}

double Policy::tick(const SchedState&, const std::vector<TaskRef>&) {
  return 0.0;
}

void FcfsPolicy::order(std::vector<TaskRef>& q, const SchedState&) {
  sort_incremental(q, [](const TaskRef& a, const TaskRef& b) {
    if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
    if (a.eligible_time != b.eligible_time)
      return a.eligible_time < b.eligible_time;
    return by_identity(a, b);
  });
}

std::unique_ptr<Policy> FcfsPolicy::clone() const {
  return std::make_unique<FcfsPolicy>();
}

void EasyBackfillingPolicy::order(std::vector<TaskRef>& q,
                                  const SchedState& s) {
  FcfsPolicy{}.order(q, s);
}

std::unique_ptr<Policy> EasyBackfillingPolicy::clone() const {
  return std::make_unique<EasyBackfillingPolicy>();
}

void SjfPolicy::order(std::vector<TaskRef>& q, const SchedState&) {
  sort_incremental(q, [](const TaskRef& a, const TaskRef& b) {
    if (a.runtime != b.runtime) return a.runtime < b.runtime;
    return by_identity(a, b);
  });
}

std::unique_ptr<Policy> SjfPolicy::clone() const {
  return std::make_unique<SjfPolicy>();
}

void LjfPolicy::order(std::vector<TaskRef>& q, const SchedState&) {
  sort_incremental(q, [](const TaskRef& a, const TaskRef& b) {
    if (a.runtime != b.runtime) return a.runtime > b.runtime;
    return by_identity(a, b);
  });
}

std::unique_ptr<Policy> LjfPolicy::clone() const {
  return std::make_unique<LjfPolicy>();
}

void WideFirstPolicy::order(std::vector<TaskRef>& q, const SchedState&) {
  sort_incremental(q, [](const TaskRef& a, const TaskRef& b) {
    if (a.cores != b.cores) return a.cores > b.cores;
    if (a.runtime != b.runtime) return a.runtime > b.runtime;
    return by_identity(a, b);
  });
}

std::unique_ptr<Policy> WideFirstPolicy::clone() const {
  return std::make_unique<WideFirstPolicy>();
}

void RandomPolicy::order(std::vector<TaskRef>& q, const SchedState&) {
  // The shuffle permutes the queue in arrival order, whatever order the
  // last pass left it in.
  auto perm = arrival_order(q);
  // Fisher-Yates with our own RNG (std::shuffle's result is
  // implementation-defined; this keeps runs bit-reproducible).
  for (std::size_t i = perm.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  std::vector<TaskRef> shuffled;
  shuffled.reserve(q.size());
  for (const std::size_t i : perm) shuffled.push_back(std::move(q[i]));
  q.swap(shuffled);
}

std::unique_ptr<Policy> RandomPolicy::clone() const {
  return std::make_unique<RandomPolicy>(seed_);
}

void FairSharePolicy::order(std::vector<TaskRef>& q, const SchedState& s) {
  const auto usage_of = [&](std::uint32_t user) {
    return user < s.user_usage.size() ? s.user_usage[user] : 0.0;
  };
  sort_incremental(q, [&](const TaskRef& a, const TaskRef& b) {
    const double ua = usage_of(a.user);
    const double ub = usage_of(b.user);
    if (ua != ub) return ua < ub;
    if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
    return by_identity(a, b);
  });
}

std::unique_ptr<Policy> FairSharePolicy::clone() const {
  return std::make_unique<FairSharePolicy>();
}

std::vector<std::unique_ptr<Policy>> standard_policies(
    std::uint64_t random_seed) {
  std::vector<std::unique_ptr<Policy>> zoo;
  zoo.push_back(std::make_unique<FcfsPolicy>());
  zoo.push_back(std::make_unique<EasyBackfillingPolicy>());
  zoo.push_back(std::make_unique<SjfPolicy>());
  zoo.push_back(std::make_unique<LjfPolicy>());
  zoo.push_back(std::make_unique<WideFirstPolicy>());
  zoo.push_back(std::make_unique<RandomPolicy>(random_seed));
  zoo.push_back(std::make_unique<FairSharePolicy>());
  return zoo;
}

}  // namespace atlarge::sched
