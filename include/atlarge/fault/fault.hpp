#pragma once
// Deterministic fault-injection plane (the dependability arm of the MCS
// principles): churn, flash crowds, and partial failure are first-class
// inputs to every AtLarge simulator, not afterthoughts.
//
// The design splits stochasticity from application:
//  * A FaultPlan is a *materialized* list of fault events. All randomness
//    lives in FaultPlan::generate, which derives every event from
//    (seed, event index) independently — so two plans generated with the
//    same seed but different rates are supersets of one another, which is
//    what makes "sweep faults.rate" campaigns monotone-comparable.
//  * Applying a plan is purely deterministic: domains interpret events as
//    windows/outages, so a plan replayed against the same inputs yields
//    byte-identical results (the chaos property tests pin this).
//
// Determinism contract (same discipline as the campaign engine): for a
// fixed plan, results are identical at 1, 2, and 8 runner threads and
// across killed-and-resumed campaigns, because plans are constructed
// per-trial from the trial seed and never shared mutable state.

#include <cstdint>
#include <vector>

namespace atlarge::fault {

enum class FaultKind : std::uint8_t {
  kMachineCrash = 0,     // machine outage for `duration`, then restart
  kMessageLoss,          // requests in [time, time+duration) are dropped
  kMessageDelay,         // requests in the window are deferred to its end
  kColdStartFailure,     // cold starts in the window fail
  kChurnSpike,           // `magnitude` fraction of peers leave at `time`
  kSlowdown,             // target limps at `magnitude` speed for `duration`
};

inline constexpr std::size_t kFaultKindCount = 6;

/// Stable token ("machine_crash", "message_loss", ...); names the
/// `fault.injected.<kind>` counters.
const char* to_string(FaultKind kind) noexcept;
/// Span/instant name for obs mirroring ("fault.machine_crash", ...);
/// returns a string literal, safe to hand to obs::Tracer.
const char* span_name(FaultKind kind) noexcept;

struct FaultEvent {
  double time = 0.0;         // injection time, simulated seconds
  FaultKind kind = FaultKind::kMachineCrash;
  std::uint32_t target = 0;  // domain-defined (machine/function index, ...)
  double duration = 0.0;     // outage / window length, seconds
  double magnitude = 0.0;    // churn fraction / slowdown factor, in (0, 1]

  bool operator==(const FaultEvent&) const = default;
};

/// Generative description of a plan. `rate` is the expected number of
/// fault events per 1000 simulated seconds over [0, horizon).
struct FaultSpec {
  double rate = 0.0;
  double horizon = 1'000.0;
  std::uint64_t seed = 1;
  /// Target ids are drawn uniformly from [0, targets). Domains reduce
  /// them modulo their own entity count, so any value >= 1 works.
  std::uint32_t targets = 16;
  double mean_duration = 60.0;    // exponential outage/window length
  double mean_magnitude = 0.4;    // center of the magnitude draw
  /// Kinds to draw from; empty = all kinds.
  std::vector<FaultKind> kinds;
};

/// A deterministic, replayable list of fault events, sorted by time
/// (generation order breaks ties). Value type; copy freely.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Derives round(rate * horizon / 1000) events, each a pure function of
  /// (spec.seed, event index) — plans at a lower rate with the same seed
  /// are subsets of plans at a higher rate.
  static FaultPlan generate(const FaultSpec& spec);

  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Appends an event (manual plan construction); keeps the list sorted
  /// by time, preserving insertion order among equal times.
  void add(const FaultEvent& event);

  bool operator==(const FaultPlan&) const = default;

 private:
  std::uint64_t seed_ = 0;
  std::vector<FaultEvent> events_;
};

/// Retry/timeout/backoff policy for request-shaped work (serverless
/// invocations). The defaults are a no-op: one attempt, no timeout — a
/// platform configured with the default policy behaves exactly as one
/// that predates the fault plane.
struct RetryPolicy {
  /// Total attempts (first try included); >= 1.
  std::uint32_t max_attempts = 1;
  /// Per-attempt timeout in seconds; 0 disables timeouts.
  double timeout = 0.0;
  /// Delay before retry k (1-based) is backoff_base * backoff_factor^(k-1),
  /// capped at backoff_cap.
  double backoff_base = 0.5;
  double backoff_factor = 2.0;
  double backoff_cap = 60.0;

  /// Delay before the retry_index-th retry (retry_index >= 1).
  double backoff_delay(std::uint32_t retry_index) const noexcept;
};

}  // namespace atlarge::fault
