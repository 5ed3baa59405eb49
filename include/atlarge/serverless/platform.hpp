#pragma once
// FaaS platform simulator (paper Section 6.4).
//
// The structure follows the SPEC-RG FaaS reference architecture the paper
// co-authored [103]: an event *router* receives invocations, a *function
// registry* holds function specs, an *instance manager* keeps per-function
// pools of warm instances (keep-alive policy) and performs cold starts,
// and a *resource pool* caps platform concurrency. The serverless
// principles of [101] are encoded directly: operational logic abstracted
// away (the platform manages the lifecycle), fine-grained pay-per-use
// (billing = instance busy+warm seconds), and event-driven elastic scaling.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/digest.hpp"
#include "atlarge/stats/rng.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::sim {
class Simulation;
}

namespace atlarge::serverless {

struct FunctionSpec {
  std::string name;
  double exec_time = 0.1;        // warm execution time, s
  double cold_start = 1.5;       // extra latency when no warm instance, s
  double memory_mb = 128.0;
};

struct PlatformConfig {
  double keep_alive = 600.0;     // warm-instance retention after last use, s
  std::uint32_t max_instances = 1'000;  // platform-wide concurrency cap
  /// Pre-warmed instances per function at t=0 (0 = pure scale-from-zero).
  std::uint32_t prewarmed = 0;
  /// Optional instrumentation plane (not owned, may be null), attached to
  /// the kernel by its owner: the run gets a "faas.run" span, cold starts
  /// and queueing as instants, invocation counters, a live-instances
  /// gauge, and a "faas.latency" registry digest. When the plane carries a
  /// TimeSeries or SloMonitor, its sampling hook is attached to the
  /// kernel; when it carries a FlightRecorder, per-function rings record
  /// invoke/cold_start/queue/fail events with causal links.
  obs::Observability* obs = nullptr;
  /// Optional fault plan (not owned, may be null), replayed through the
  /// kernel fault hook. The platform interprets kMessageLoss (requests
  /// dispatched in the window are dropped), kMessageDelay (requests in
  /// the window are deferred to its end, no attempt consumed), and
  /// kColdStartFailure (new containers for the target function cannot be
  /// provisioned during the window). A null or empty plan keeps behaviour
  /// byte-identical to a fault-unaware platform.
  const fault::FaultPlan* faults = nullptr;
  /// Client-side retry/timeout/backoff policy. The default (one attempt,
  /// no timeout) is a no-op.
  fault::RetryPolicy retry;
  /// When false, PlatformResult::invocations stays empty and the latency
  /// percentiles are estimated from the mergeable latency digest instead
  /// of the exact per-invocation list. This is what makes a streaming
  /// replay O(in-flight requests) in memory: with recording off and an
  /// InvocationSource, nothing scales with the trace length.
  bool record_invocations = true;
};

/// One invocation request.
struct Invocation {
  std::size_t function = 0;  // index into the platform's registry
  double arrival = 0.0;
};

struct InvocationStats {
  std::size_t function = 0;
  double arrival = 0.0;
  double start = 0.0;     // execution start (after cold start if any)
  double finish = 0.0;    // for failed invocations: time of final failure
  bool cold = false;
  std::uint32_t attempts = 1;  // attempts consumed (first try included)
  bool failed = false;         // true if every attempt failed

  double latency() const noexcept { return finish - arrival; }
};

struct PlatformResult {
  std::vector<InvocationStats> invocations;
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  double p999_latency = 0.0;
  /// Mergeable percentile digest over successful-invocation latencies
  /// (same population as the exact p50/p95/p99 fields); campaign
  /// aggregation merges these across trials.
  obs::Digest latency_digest;
  double cold_fraction = 0.0;
  /// Billed seconds: busy time plus warm idle time across instances — the
  /// serverless cost driver.
  double billed_instance_seconds = 0.0;
  /// Busy seconds only (useful work).
  double busy_instance_seconds = 0.0;
  std::uint32_t peak_instances = 0;
  /// Fault/retry outcomes. With a null/empty plan and the default retry
  /// policy: failed_invocations == retries == 0 and success_rate == 1.
  std::size_t failed_invocations = 0;
  std::size_t retries = 0;
  double success_rate = 1.0;
  std::size_t faults_injected = 0;
  std::size_t faults_recovered = 0;
  /// Instance creations refused by the backing substrate (always 0 for the
  /// abstract pool). A refused creation consumes an attempt, like a
  /// cold-start failure.
  std::size_t capacity_denials = 0;
};

/// Pull-source of invocations: the one way invocations enter the platform
/// engine. The next invocation is pulled only when the previous one's
/// arrival fires, so a trace-backed source (e.g. trace::catalog's event
/// adapter over a chunked .atl reader) replays with bounded memory.
class InvocationSource {
 public:
  virtual ~InvocationSource() = default;
  /// Fills `out` with the next invocation; returns false at end of load.
  virtual bool next(Invocation& out) = 0;
};

/// Simulates the invocations against the platform through a cursor
/// source. Arrivals must be nonnegative and nondecreasing and function
/// indices inside `registry`; the first invocation that is not throws
/// std::invalid_argument when pulled, which is mid-run unless it is first.
PlatformResult run_platform(const std::vector<FunctionSpec>& registry,
                            const std::vector<Invocation>& invocations,
                            const PlatformConfig& config);

/// Streaming form, same precondition and exception: pulls invocations
/// lazily from `source`. Completed requests release their bookkeeping
/// slot, so with
/// config.record_invocations == false the platform's memory is bounded by
/// the number of in-flight requests, not the trace length.
PlatformResult run_platform(const std::vector<FunctionSpec>& registry,
                            InvocationSource& source,
                            const PlatformConfig& config);

/// Backing substrate for instance provisioning — the seam through which a
/// composition layer (eco::run_ecosystem) replaces the platform's abstract
/// instance pool with a real datacenter model. Every instance creation
/// asks the substrate for a machine lease; every instance destruction
/// returns it. A null backing is the abstract pool: creations always
/// succeed and cost nothing beyond the function's cold start.
class InstanceBacking {
 public:
  virtual ~InstanceBacking() = default;
  /// Lease capacity for one instance of `function`. On success fills
  /// `machine` (substrate machine id, echoed back on release) and
  /// `extra_latency` (additional provisioning delay — real machine
  /// power-up — added to the instance's first cold start) and returns
  /// true. Returns false when the substrate is out of capacity; the
  /// triggering attempt then fails like a cold-start failure.
  virtual bool acquire(std::size_t function, std::uint32_t& machine,
                       double& extra_latency) = 0;
  /// An instance was destroyed (keep-alive expiry, recycling, or crash);
  /// its lease on `machine` is returned.
  virtual void release(std::uint32_t machine) = 0;
};

namespace detail {
class FaasEngine;
class VectorSource;
}

/// The platform engine on a borrowed kernel — run_platform is this engine
/// on a private kernel — so several domain simulators share one clock
/// (eco::run_ecosystem). prepare() schedules prewarm pools, fault hooks, and
/// the first arrival; the caller runs the kernel past the platform's
/// quiescence; collect() finalizes. The kernel's owner, not the driver,
/// attaches config.obs to it. With a null backing and no fail_machine
/// calls the per-domain event stream is byte-identical to a run_platform
/// run.
class PlatformDriver {
 public:
  /// All referenced objects must outlive the driver. `invocations` has
  /// run_platform's precondition; a violation throws
  /// std::invalid_argument from prepare() or from the kernel's run.
  PlatformDriver(const std::vector<FunctionSpec>& registry,
                 const std::vector<Invocation>& invocations,
                 const PlatformConfig& config, sim::Simulation& sim,
                 InstanceBacking* backing = nullptr);
  ~PlatformDriver();
  PlatformDriver(const PlatformDriver&) = delete;
  PlatformDriver& operator=(const PlatformDriver&) = delete;

  /// Schedules prewarm pools, fault hooks, and the first arrival.
  void prepare();
  /// Finalizes statistics after the shared kernel has run. Correct as
  /// long as the kernel ran past the platform's last invocation finish;
  /// keep-alive expiries cut off after that point only re-bill idle time
  /// that finalize() clamps identically.
  PlatformResult collect();

  /// Crash propagation from the backing substrate: warm instances on
  /// `machine` are destroyed (their leases released); busy instances are
  /// doomed — they finish their committed execution, then are destroyed
  /// instead of rejoining the warm pool.
  void fail_machine(std::uint32_t machine);

 private:
  std::unique_ptr<detail::VectorSource> source_;  // cursor on invocations
  std::unique_ptr<detail::FaasEngine> engine_;
};

/// Microservice baseline: `instances` always-on servers per function, FIFO
/// queueing, no cold starts, billed for the full horizon.
PlatformResult run_microservice_baseline(
    const std::vector<FunctionSpec>& registry,
    const std::vector<Invocation>& invocations, std::uint32_t instances,
    double horizon);

/// Bursty invocation workload: Poisson background plus periodic bursts —
/// the traffic shape that makes serverless economics interesting.
std::vector<Invocation> bursty_invocations(std::size_t functions,
                                           double base_rate, double horizon,
                                           double burst_every,
                                           std::size_t burst_size,
                                           atlarge::stats::Rng& rng);

}  // namespace atlarge::serverless
