#include "atlarge/sched/policies.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "erase.hpp"

namespace atlarge::sched {
namespace {

/// Stable tie-break: job id then task id, so every policy is a total order
/// and simulation stays deterministic.
bool by_identity(const TaskRef& a, const TaskRef& b) {
  if (a.job_id != b.job_id) return a.job_id < b.job_id;
  return a.task_id < b.task_id;
}

/// Sorts `q` by `less`, keeping the work the previous pass did: the first
/// `ordered` entries (SchedState::ordered) are still sorted, or, when that
/// is 0 (unknown), the prefix std::is_sorted_until finds. Only the rest
/// (typically the tasks appended since) is sorted, and the two runs are
/// merged. Every zoo comparator is a strict total order over distinct
/// (job, task) pairs, so the result is the one sorted permutation whatever
/// order `q` arrived in.
template <class Less>
void sort_incremental(std::vector<TaskRef>& q, std::size_t ordered,
                      Less less) {
  const auto tail = ordered > 0 && ordered <= q.size()
                        ? q.begin() + static_cast<std::ptrdiff_t>(ordered)
                        : std::is_sorted_until(q.begin(), q.end(), less);
  if (tail == q.end()) return;
  std::sort(tail, q.end(), less);
  std::inplace_merge(q.begin(), tail, q.end(), less);
}

}  // namespace

std::vector<std::size_t> arrival_order(const std::vector<TaskRef>& queue) {
  // Stable LSD radix sort of positions by seq - min(seq), one byte per
  // pass up to the stamps' span: linear in the queue length, on queues a
  // shuffle scrambled. Stability keeps equal stamps in input order.
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

void FcfsPolicy::order(std::vector<TaskRef>& q, const SchedState& s) {
  sort_incremental(q, s.ordered, [](const TaskRef& a, const TaskRef& b) {
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

void SjfPolicy::order(std::vector<TaskRef>& q, const SchedState& s) {
  sort_incremental(q, s.ordered, [](const TaskRef& a, const TaskRef& b) {
    if (a.runtime != b.runtime) return a.runtime < b.runtime;
    return by_identity(a, b);
  });
}

std::unique_ptr<Policy> SjfPolicy::clone() const {
  return std::make_unique<SjfPolicy>();
}

void LjfPolicy::order(std::vector<TaskRef>& q, const SchedState& s) {
  sort_incremental(q, s.ordered, [](const TaskRef& a, const TaskRef& b) {
    if (a.runtime != b.runtime) return a.runtime > b.runtime;
    return by_identity(a, b);
  });
}

std::unique_ptr<Policy> LjfPolicy::clone() const {
  return std::make_unique<LjfPolicy>();
}

void WideFirstPolicy::order(std::vector<TaskRef>& q, const SchedState& s) {
  sort_incremental(q, s.ordered, [](const TaskRef& a, const TaskRef& b) {
    if (a.cores != b.cores) return a.cores > b.cores;
    if (a.runtime != b.runtime) return a.runtime > b.runtime;
    return by_identity(a, b);
  });
}

std::unique_ptr<Policy> WideFirstPolicy::clone() const {
  return std::make_unique<WideFirstPolicy>();
}

void RandomPolicy::order(std::vector<TaskRef>& q, const SchedState& s) {
  // The shuffle permutes the queue in arrival order, whatever order the
  // last pass left it in.
  if (!follow(q, s.ordered)) {
    arrivals_.clear();
    for (const std::size_t i : arrival_order(q)) arrivals_.push_back(q[i]);
  }
  // Fisher-Yates over arrival ranks with our own RNG (std::shuffle's
  // result is implementation-defined; this keeps runs bit-reproducible).
  shuffle_.resize(q.size());
  std::iota(shuffle_.begin(), shuffle_.end(), std::size_t{0});
  for (std::size_t i = shuffle_.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(shuffle_[i - 1], shuffle_[j]);
  }
  for (std::size_t k = 0; k < q.size(); ++k) q[k] = arrivals_[shuffle_[k]];
}

bool RandomPolicy::follow(const std::vector<TaskRef>& q,
                          std::size_t ordered) {
  if (ordered == 0 || ordered > q.size()) return false;
  // Walk the last output against the queue's first `ordered` entries; the
  // entries that find no match are the tasks placed since.
  gone_.clear();
  std::size_t matched = 0;
  for (const std::size_t rank : shuffle_) {
    const TaskRef& last = arrivals_[rank];
    if (matched < ordered && last.job_id == q[matched].job_id &&
        last.task_id == q[matched].task_id) {
      ++matched;
    } else {
      gone_.push_back(rank);
    }
  }
  if (matched != ordered) return false;
  std::sort(gone_.begin(), gone_.end());
  detail::erase_positions(arrivals_, gone_);
  // The tail was appended since, in rising seq: it arrived after them all.
  arrivals_.insert(arrivals_.end(),
                   q.begin() + static_cast<std::ptrdiff_t>(ordered), q.end());
  return true;
}

std::unique_ptr<Policy> RandomPolicy::clone() const {
  return std::make_unique<RandomPolicy>(seed_);
}

void FairSharePolicy::order(std::vector<TaskRef>& q, const SchedState& s) {
  const auto usage_of = [&](std::uint32_t user) {
    return user < s.user_usage.size() ? s.user_usage[user] : 0.0;
  };
  // Usage moves between calls, and with two users or more that can
  // reorder the prefix the last call sorted. With one, the engine (which
  // gives every user it queues a usage slot) queues only that user's
  // tasks, and they share one usage.
  const std::size_t ordered = s.user_usage.size() <= 1 ? s.ordered : 0;
  sort_incremental(q, ordered, [&](const TaskRef& a, const TaskRef& b) {
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
