#include "atlarge/fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "atlarge/stats/rng.hpp"

namespace atlarge::fault {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kMachineCrash: return "machine_crash";
    case FaultKind::kMessageLoss: return "message_loss";
    case FaultKind::kMessageDelay: return "message_delay";
    case FaultKind::kColdStartFailure: return "cold_start_failure";
    case FaultKind::kChurnSpike: return "churn_spike";
    case FaultKind::kSlowdown: return "slowdown";
  }
  return "?";
}

const char* span_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kMachineCrash: return "fault.machine_crash";
    case FaultKind::kMessageLoss: return "fault.message_loss";
    case FaultKind::kMessageDelay: return "fault.message_delay";
    case FaultKind::kColdStartFailure: return "fault.cold_start_failure";
    case FaultKind::kChurnSpike: return "fault.churn_spike";
    case FaultKind::kSlowdown: return "fault.slowdown";
  }
  return "fault.?";
}

FaultPlan FaultPlan::generate(const FaultSpec& spec) {
  if (!(spec.horizon > 0.0))
    throw std::invalid_argument("FaultPlan::generate: horizon must be > 0");
  if (spec.rate < 0.0)
    throw std::invalid_argument("FaultPlan::generate: rate must be >= 0");
  if (spec.targets == 0)
    throw std::invalid_argument("FaultPlan::generate: targets must be >= 1");
  for (const FaultKind k : spec.kinds) {
    if (static_cast<std::size_t>(k) >= kFaultKindCount)
      throw std::invalid_argument("FaultPlan::generate: bad fault kind");
  }

  FaultPlan plan;
  plan.seed_ = spec.seed;
  const auto n = static_cast<std::size_t>(
      std::llround(spec.rate * spec.horizon / 1'000.0));
  plan.events_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Each event is a pure function of (seed, i): plans generated at a
    // lower rate with the same seed are exact subsets of higher-rate
    // plans, which makes fault-rate sweeps monotone-comparable.
    stats::Rng rng(splitmix64(spec.seed ^
                              (0x51bafa57c0ffee11ULL +
                               0x9e3779b97f4a7c15ULL * (i + 1))));
    FaultEvent e;
    e.time = rng.uniform(0.0, spec.horizon);
    if (spec.kinds.empty()) {
      e.kind = static_cast<FaultKind>(rng.uniform_int(
          0, static_cast<std::int64_t>(kFaultKindCount) - 1));
    } else {
      e.kind = spec.kinds[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.kinds.size()) - 1))];
    }
    e.target = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.targets) - 1));
    e.duration = rng.exponential(1.0 / std::max(spec.mean_duration, 1e-9));
    e.magnitude = std::clamp(spec.mean_magnitude * (0.5 + rng.uniform()),
                             0.01, 1.0);
    plan.events_.push_back(e);
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return plan;
}

void FaultPlan::add(const FaultEvent& event) {
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  events_.insert(pos, event);
}

std::vector<FaultEvent> FaultPlan::events_between(double t0, double t1) const {
  std::vector<FaultEvent> out;
  for (const FaultEvent& e : events_) {
    if (e.time >= t1) break;
    if (e.time >= t0) out.push_back(e);
  }
  return out;
}

double RetryPolicy::backoff_delay(std::uint32_t retry_index) const noexcept {
  if (retry_index == 0) return 0.0;
  double delay = backoff_base;
  for (std::uint32_t i = 1; i < retry_index; ++i) {
    delay *= backoff_factor;
    if (delay >= backoff_cap) break;
  }
  return std::min(delay, backoff_cap);
}

}  // namespace atlarge::fault
