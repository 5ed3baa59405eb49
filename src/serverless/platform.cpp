#include "atlarge/serverless/platform.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>

#include "atlarge/fault/injector.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/descriptive.hpp"

namespace atlarge::serverless {
namespace detail {

constexpr std::size_t kNoInstance = static_cast<std::size_t>(-1);
constexpr std::uint32_t kNoMachine = static_cast<std::uint32_t>(-1);

struct Instance {
  std::size_t function = 0;
  bool busy = false;
  bool alive = true;
  double idle_since = 0.0;
  sim::EventHandle expiry;
  /// Backing-substrate lease (kNoMachine with the abstract pool).
  std::uint32_t machine = kNoMachine;
  /// Provisioning delay owed on this instance's first cold execution.
  double provision_extra = 0.0;
  /// Machine crashed while the instance was busy: destroy on release
  /// instead of rejoining the warm pool.
  bool doomed = false;
};

// Per-request bookkeeping. Slots are recycled through a freelist as
// requests reach a terminal state, so the live set is the in-flight set.
struct Request {
  Invocation inv;
  std::uint32_t attempts = 0;
  fault::FaultEvent last_fault;  // time < 0: "no fault blamed yet"
};

// An input vector replays through the pull path like any other source.
class VectorSource final : public InvocationSource {
 public:
  explicit VectorSource(const std::vector<Invocation>& items)
      : items_(items) {}

  bool next(Invocation& out) override {
    if (next_ == items_.size()) return false;
    out = items_[next_++];
    return true;
  }

 private:
  const std::vector<Invocation>& items_;
  std::size_t next_ = 0;
};

class FaasEngine {
 public:
  FaasEngine(const std::vector<FunctionSpec>& registry,
             InvocationSource& source, const PlatformConfig& config,
             sim::Simulation& sim, InstanceBacking* backing = nullptr)
      : registry_(registry),
        source_(source),
        config_(config),
        sim_(sim),
        backing_(backing),
        obs_(config.obs) {
    if (obs_ != nullptr) {
      started_ = &obs_->metrics.counter("faas.invocations");
      cold_starts_ = &obs_->metrics.counter("faas.cold_starts");
      queued_ = &obs_->metrics.counter("faas.queued");
      failed_ = &obs_->metrics.counter("faas.failed");
      requests_ = &obs_->metrics.counter("faas.requests");
      live_gauge_ = &obs_->metrics.gauge("faas.live_instances");
      latency_dig_ = &obs_->metrics.digest("faas.latency");
      flight_ = obs_->flight();
      if (flight_ != nullptr) {
        flight_entity_.reserve(registry_.size());
        for (const auto& spec : registry_)
          flight_entity_.push_back(flight_->entity("function/" + spec.name));
      }
    }
  }

  void prepare() {
    if (obs_ != nullptr)
      obs_->tracer.begin("faas.run", "serverless", sim_.now());
    // Pre-size the kernel for 1024 in-flight requests, each holding at
    // most one pending event (arrival, dispatch, retry, or delay
    // reschedule), and every instance's keep-alive expiry.
    sim_.reserve(1024 + config_.max_instances + 8);
    if (config_.faults != nullptr && !config_.faults->empty())
      attach_faults();
    // Pre-warm pools (a backing substrate may refuse part of the pool).
    for (std::size_t f = 0; f < registry_.size(); ++f) {
      for (std::uint32_t i = 0; i < config_.prewarmed; ++i) {
        if (live_count_ >= config_.max_instances) break;
        if (make_instance(f, /*busy=*/false) == kNoInstance) break;
      }
    }
    schedule_next_arrival();
  }

  PlatformResult collect() {
    finalize();
    if (obs_ != nullptr)
      obs_->tracer.end("faas.run", "serverless", sim_.now());
    return std::move(result_);
  }

  /// Crash propagation from the backing substrate (see PlatformDriver).
  void fail_machine(std::uint32_t machine) {
    for (std::size_t idx = 0; idx < instances_.size(); ++idx) {
      auto& inst = instances_[idx];
      if (!inst.alive || inst.machine != machine) continue;
      if (inst.busy) {
        inst.doomed = true;
        continue;
      }
      destroy_instance(idx);
    }
  }

 private:
  static Request make_request(const Invocation& inv) {
    Request req;
    req.inv = inv;
    req.last_fault.time = -1.0;  // sentinel: "no fault blamed yet"
    return req;
  }

  // Pull one invocation and schedule its arrival; the arrival event pulls
  // its successor before dispatching, so exactly one un-arrived
  // invocation is ever scheduled ahead.
  void schedule_next_arrival() {
    Invocation inv;
    if (!source_.next(inv)) return;
    if (inv.function >= registry_.size())
      throw std::invalid_argument("run_platform: unknown function index");
    if (!(inv.arrival >= last_arrival_))  // also rejects NaN
      throw std::invalid_argument(
          "run_platform: arrivals must be nonnegative and nondecreasing");
    last_arrival_ = inv.arrival;
    const std::size_t slot = alloc_slot(inv);
    sim_.schedule_at(inv.arrival, [this, slot] {
      schedule_next_arrival();
      dispatch(slot);
    });
  }

  std::size_t alloc_slot(const Invocation& inv) {
    if (!free_slots_.empty()) {
      const std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      reqs_[slot] = make_request(inv);
      return slot;
    }
    reqs_.push_back(make_request(inv));
    return reqs_.size() - 1;
  }

  // Called when a request reaches a terminal state (success recorded or
  // final failure).
  void retire_slot(std::size_t i) { free_slots_.push_back(i); }

  std::size_t find_idle(std::size_t function) {
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      if (instances_[i].alive && !instances_[i].busy &&
          instances_[i].function == function)
        return i;
    }
    return instances_.size();
  }

  /// Creates an instance, or returns kNoInstance when the backing
  /// substrate is out of capacity (never with the abstract pool).
  std::size_t make_instance(std::size_t function, bool busy) {
    Instance inst;
    inst.function = function;
    inst.busy = busy;
    inst.idle_since = sim_.now();
    if (backing_ != nullptr &&
        !backing_->acquire(function, inst.machine, inst.provision_extra)) {
      ++result_.capacity_denials;
      return kNoInstance;
    }
    instances_.push_back(std::move(inst));
    ++live_count_;
    result_.peak_instances = std::max(result_.peak_instances, live_count_);
    if (obs_ != nullptr)
      live_gauge_->set(static_cast<double>(live_count_));
    const std::size_t idx = instances_.size() - 1;
    if (!busy) arm_expiry(idx);
    return idx;
  }

  void destroy_instance(std::size_t idx) {
    auto& inst = instances_[idx];
    if (!inst.alive) return;
    inst.alive = false;
    inst.expiry.cancel();
    --live_count_;
    if (obs_ != nullptr)
      live_gauge_->set(static_cast<double>(live_count_));
    if (!inst.busy)
      result_.billed_instance_seconds += sim_.now() - inst.idle_since;
    if (backing_ != nullptr && inst.machine != kNoMachine) {
      backing_->release(inst.machine);
      inst.machine = kNoMachine;
    }
  }

  void arm_expiry(std::size_t idx) {
    instances_[idx].expiry = sim_.schedule_after(config_.keep_alive, [this,
                                                                      idx] {
      auto& inst = instances_[idx];
      if (inst.alive && !inst.busy) destroy_instance(idx);
    });
  }

  void attach_faults() {
    faulted_ = true;
    const std::size_t nf = registry_.size();
    loss_until_.assign(nf, 0.0);
    delay_until_.assign(nf, 0.0);
    coldfail_until_.assign(nf, 0.0);
    loss_event_.resize(nf);
    coldfail_event_.resize(nf);
    injector_.emplace(*config_.faults, obs_);
    // Each handler widens the per-function window to the event's end;
    // window checks on the dispatch path are then O(1).
    injector_->on_kind(
        fault::FaultKind::kMessageLoss, [this](const fault::FaultEvent& e) {
          const std::size_t f = e.target % registry_.size();
          const double until = e.time + e.duration;
          if (until > loss_until_[f]) {
            loss_until_[f] = until;
            loss_event_[f] = e;
          }
        });
    injector_->on_kind(
        fault::FaultKind::kMessageDelay, [this](const fault::FaultEvent& e) {
          const std::size_t f = e.target % registry_.size();
          delay_until_[f] = std::max(delay_until_[f], e.time + e.duration);
        });
    injector_->on_kind(fault::FaultKind::kColdStartFailure,
                       [this](const fault::FaultEvent& e) {
                         const std::size_t f = e.target % registry_.size();
                         const double until = e.time + e.duration;
                         if (until > coldfail_until_[f]) {
                           coldfail_until_[f] = until;
                           coldfail_event_[f] = e;
                         }
                       });
    // Attached before arrivals are scheduled, so at equal timestamps the
    // window-opening injection fires before the dispatch it affects.
    sim_.set_fault_hook(&*injector_);
  }

  void dispatch(std::size_t i) {
    const std::size_t f = reqs_[i].inv.function;
    if (faulted_ && sim_.now() < delay_until_[f]) {
      // Deferred, not failed: the request sits in the network until the
      // delay window closes; no attempt is consumed.
      sim_.schedule_at(delay_until_[f], [this, i] { dispatch(i); });
      return;
    }
    ++reqs_[i].attempts;
    // One request per attempt, *including* ones lost to faults — the
    // denominator an error-ratio SLO needs (failures over attempts).
    if (obs_ != nullptr) requests_->add(1);
    if (faulted_ && sim_.now() < loss_until_[f]) {
      // Dropped in flight. The client notices at its timeout (or, with no
      // timeout configured, immediately).
      reqs_[i].last_fault = loss_event_[f];
      if (config_.retry.timeout > 0.0) {
        sim_.schedule_after(config_.retry.timeout,
                            [this, i] { attempt_failed(i); });
      } else {
        attempt_failed(i);
      }
      return;
    }
    const std::size_t idle = find_idle(f);
    if (idle != instances_.size()) {
      start_execution(i, idle, /*cold=*/false);
      return;
    }
    if (faulted_ && sim_.now() < coldfail_until_[f]) {
      // No warm instance and the platform cannot provision new containers
      // for this function during the window.
      reqs_[i].last_fault = coldfail_event_[f];
      attempt_failed(i);
      return;
    }
    if (live_count_ < config_.max_instances) {
      const std::size_t idx = make_instance(f, /*busy=*/true);
      if (idx != kNoInstance) {
        start_execution(i, idx, /*cold=*/true);
        return;
      }
      // Backing substrate out of capacity: the attempt fails like a
      // cold-start failure (retry policy applies).
      attempt_failed(i);
      return;
    }
    if (obs_ != nullptr) {
      queued_->add(1);
      obs_->tracer.instant("faas.queue", "serverless", sim_.now());
    }
    pending_.push_back(i);
  }

  void attempt_failed(std::size_t i) {
    if (reqs_[i].attempts < config_.retry.max_attempts) {
      ++result_.retries;
      sim_.schedule_after(config_.retry.backoff_delay(reqs_[i].attempts),
                          [this, i] { dispatch(i); });
      return;
    }
    // Out of attempts: the invocation fails for good.
    const Invocation& inv = reqs_[i].inv;
    InvocationStats stats;
    stats.function = inv.function;
    stats.arrival = inv.arrival;
    stats.start = sim_.now();
    stats.finish = sim_.now();
    stats.attempts = reqs_[i].attempts;
    stats.failed = true;
    record_outcome(stats);
    ++result_.failed_invocations;
    if (obs_ != nullptr) {
      failed_->add(1);
      obs_->tracer.instant("faas.failed", "serverless", sim_.now());
    }
    if (flight_ != nullptr) {
      const std::size_t ent = flight_entity_[inv.function];
      flight_->record(ent, sim_.now(), "fail",
                      static_cast<double>(reqs_[i].attempts),
                      flight_->last_seq(ent));
    }
    retire_slot(i);
  }

  void start_execution(std::size_t i, std::size_t idx, bool cold) {
    const Invocation inv = reqs_[i].inv;  // by value: the slot may retire
    auto& inst = instances_[idx];
    if (!inst.busy) {
      // Leaving the warm pool: bill the idle stretch, cancel expiry.
      inst.expiry.cancel();
      result_.billed_instance_seconds += sim_.now() - inst.idle_since;
      inst.busy = true;
    }
    const auto& spec = registry_[inv.function];
    // With a backing substrate a cold start also pays the machine's
    // provisioning delay, once (x + 0.0 keeps the abstract pool bitwise
    // identical).
    const double cold_latency =
        cold ? spec.cold_start + inst.provision_extra : 0.0;
    if (cold) inst.provision_extra = 0.0;
    const double total = cold_latency + spec.exec_time;
    if (config_.retry.timeout > 0.0 && total > config_.retry.timeout) {
      // The attempt times out before the function would finish: the
      // instance is occupied (and billed) until the timeout, the work is
      // abandoned (no useful busy seconds).
      result_.billed_instance_seconds += config_.retry.timeout;
      sim_.schedule_after(config_.retry.timeout, [this, i, idx] {
        release(idx);
        attempt_failed(i);
      });
      return;
    }
    const double start = sim_.now() + cold_latency;
    const double finish = start + spec.exec_time;
    InvocationStats stats;
    stats.function = inv.function;
    stats.arrival = inv.arrival;
    stats.start = start;
    stats.finish = finish;
    stats.cold = cold;
    stats.attempts = reqs_[i].attempts == 0 ? 1 : reqs_[i].attempts;
    if (obs_ != nullptr) {
      started_->add(1);
      latency_dig_->add(stats.latency());
      if (cold) {
        cold_starts_->add(1);
        obs_->tracer.instant("faas.cold_start", "serverless", sim_.now());
      }
    }
    if (flight_ != nullptr) {
      const std::size_t ent = flight_entity_[inv.function];
      flight_->record(ent, sim_.now(), cold ? "cold_start" : "invoke",
                      stats.latency(), flight_->last_seq(ent));
    }
    record_outcome(stats);
    if (faulted_ && reqs_[i].attempts > 1 && reqs_[i].last_fault.time >= 0.0)
      injector_->recovered(reqs_[i].last_fault, sim_.now());
    retire_slot(i);
    const double busy = finish - sim_.now();
    result_.busy_instance_seconds += spec.exec_time;
    result_.billed_instance_seconds += busy;
    sim_.schedule_after(busy, [this, idx] { release(idx); });
  }

  // Terminal accounting shared by the success and final-failure paths:
  // O(1) running aggregates always, plus the full InvocationStats row
  // when recording is on (the exact percentile path in finalize()).
  void record_outcome(const InvocationStats& stats) {
    ++outcomes_;
    end_time_ = std::max(end_time_, stats.finish);
    if (stats.cold) ++cold_outcomes_;
    if (!stats.failed) result_.latency_digest.add(stats.latency());
    if (config_.record_invocations) result_.invocations.push_back(stats);
  }

  void release(std::size_t idx) {
    auto& inst = instances_[idx];
    inst.busy = false;
    inst.idle_since = sim_.now();
    if (inst.doomed) {
      // The machine crashed mid-execution: the committed work finished,
      // but the instance cannot rejoin the warm pool.
      destroy_instance(idx);
      return;
    }

    // Serve a queued request for the same function warm, if any.
    const auto same =
        std::find_if(pending_.begin(), pending_.end(), [&](std::size_t p) {
          return reqs_[p].inv.function == inst.function;
        });
    if (same != pending_.end()) {
      const std::size_t i = *same;
      pending_.erase(same);
      start_execution(i, idx, /*cold=*/false);
      return;
    }
    // Otherwise recycle this instance for the head-of-queue request
    // (destroy + cold start) so a full platform never deadlocks. Requests
    // whose function is inside a cold-start-failure window lose their
    // attempt instead of recycling the instance.
    while (!pending_.empty()) {
      const std::size_t i = pending_.front();
      pending_.pop_front();
      const std::size_t f = reqs_[i].inv.function;
      if (faulted_ && sim_.now() < coldfail_until_[f]) {
        reqs_[i].last_fault = coldfail_event_[f];
        attempt_failed(i);
        continue;
      }
      destroy_instance(idx);
      const std::size_t fresh = make_instance(f, /*busy=*/true);
      if (fresh == kNoInstance) {
        // The substrate refused the replacement (e.g. its machine just
        // crashed): the request loses its attempt; later releases will
        // serve the remaining queue.
        attempt_failed(i);
        return;
      }
      start_execution(i, fresh, /*cold=*/true);
      return;
    }
    arm_expiry(idx);
  }

  void finalize() {
    if (config_.record_invocations) {
      std::vector<double> latencies;
      for (const auto& s : result_.invocations) {
        // Failed invocations have no latency; percentiles cover successes.
        if (!s.failed) latencies.push_back(s.latency());
      }
      result_.p50_latency = stats::quantile(latencies, 0.5);
      result_.p95_latency = stats::quantile(latencies, 0.95);
      result_.p99_latency = stats::quantile(latencies, 0.99);
      result_.p999_latency = stats::quantile(latencies, 0.999);
    } else {
      result_.p50_latency = result_.latency_digest.p50();
      result_.p95_latency = result_.latency_digest.p95();
      result_.p99_latency = result_.latency_digest.p99();
      result_.p999_latency = result_.latency_digest.p999();
    }
    // Bill the residual idle time of still-warm instances up to the last
    // event (capped by keep-alive, which would have fired afterwards).
    for (auto& inst : instances_) {
      if (inst.alive && !inst.busy) {
        result_.billed_instance_seconds +=
            std::clamp(end_time_ - inst.idle_since, 0.0, config_.keep_alive);
        inst.alive = false;
      }
    }
    if (outcomes_ != 0) {
      result_.cold_fraction =
          static_cast<double>(cold_outcomes_) / static_cast<double>(outcomes_);
      result_.success_rate =
          1.0 - static_cast<double>(result_.failed_invocations) /
                    static_cast<double>(outcomes_);
    }
    if (injector_.has_value()) {
      result_.faults_injected = injector_->injected();
      result_.faults_recovered = injector_->recovered_count();
    }
  }

  const std::vector<FunctionSpec>& registry_;
  InvocationSource& source_;
  PlatformConfig config_;
  sim::Simulation& sim_;  // borrowed: run_platform()'s own or a shared one
  InstanceBacking* backing_ = nullptr;
  std::vector<Instance> instances_;
  std::vector<Request> reqs_;        // request slots, indexed by `i`
  std::vector<std::size_t> free_slots_;  // retired request slots
  std::deque<std::size_t> pending_;  // indices into reqs_
  std::uint32_t live_count_ = 0;
  double last_arrival_ = 0.0;        // nondecreasing-arrival check
  PlatformResult result_;
  // Running aggregates over terminal outcomes (O(1) memory).
  std::size_t outcomes_ = 0;
  std::size_t cold_outcomes_ = 0;
  double end_time_ = 0.0;

  // Fault plane (engaged only for a non-null, non-empty plan). Windows are
  // per function: requests dispatched before *_until_[f] hit that fault.
  bool faulted_ = false;
  std::optional<fault::Injector> injector_;
  std::vector<double> loss_until_;
  std::vector<double> delay_until_;
  std::vector<double> coldfail_until_;
  std::vector<fault::FaultEvent> loss_event_;      // widest window's event
  std::vector<fault::FaultEvent> coldfail_event_;

  // Instrumentation plane; metric handles are resolved once in the ctor so
  // the hot path never does a name lookup.
  obs::Observability* obs_ = nullptr;
  obs::Counter* started_ = nullptr;
  obs::Counter* cold_starts_ = nullptr;
  obs::Counter* queued_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Gauge* live_gauge_ = nullptr;
  obs::Digest* latency_dig_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::vector<std::size_t> flight_entity_;  // per-function ring ids
};

}  // namespace detail

PlatformResult run_platform(const std::vector<FunctionSpec>& registry,
                            const std::vector<Invocation>& invocations,
                            const PlatformConfig& config) {
  detail::VectorSource source(invocations);
  return run_platform(registry, source, config);
}

PlatformResult run_platform(const std::vector<FunctionSpec>& registry,
                            InvocationSource& source,
                            const PlatformConfig& config) {
  sim::Simulation sim;
  if (config.obs != nullptr) config.obs->attach(sim);
  detail::FaasEngine engine(registry, source, config, sim);
  engine.prepare();
  sim.run();
  return engine.collect();
}

PlatformDriver::PlatformDriver(const std::vector<FunctionSpec>& registry,
                               const std::vector<Invocation>& invocations,
                               const PlatformConfig& config,
                               sim::Simulation& sim, InstanceBacking* backing)
    : source_(std::make_unique<detail::VectorSource>(invocations)),
      engine_(std::make_unique<detail::FaasEngine>(registry, *source_, config,
                                                   sim, backing)) {}

PlatformDriver::~PlatformDriver() = default;

void PlatformDriver::prepare() { engine_->prepare(); }
PlatformResult PlatformDriver::collect() { return engine_->collect(); }
void PlatformDriver::fail_machine(std::uint32_t machine) {
  engine_->fail_machine(machine);
}

PlatformResult run_microservice_baseline(
    const std::vector<FunctionSpec>& registry,
    const std::vector<Invocation>& invocations, std::uint32_t instances,
    double horizon) {
  PlatformResult result;
  // Per-function FIFO over `instances` always-on servers: track each
  // server's next-free time.
  std::vector<std::vector<double>> free_at(
      registry.size(), std::vector<double>(std::max<std::uint32_t>(instances,
                                                                   1),
                                           0.0));
  std::vector<double> latencies;
  for (const auto& inv : invocations) {
    if (inv.function >= registry.size())
      throw std::invalid_argument("baseline: unknown function index");
    auto& servers = free_at[inv.function];
    auto it = std::min_element(servers.begin(), servers.end());
    const double start = std::max(inv.arrival, *it);
    const double finish = start + registry[inv.function].exec_time;
    *it = finish;
    InvocationStats s;
    s.function = inv.function;
    s.arrival = inv.arrival;
    s.start = start;
    s.finish = finish;
    s.cold = false;
    result.invocations.push_back(s);
    latencies.push_back(s.latency());
    result.busy_instance_seconds += registry[inv.function].exec_time;
  }
  result.p50_latency = stats::quantile(latencies, 0.5);
  result.p95_latency = stats::quantile(latencies, 0.95);
  result.p99_latency = stats::quantile(latencies, 0.99);
  result.p999_latency = stats::quantile(latencies, 0.999);
  for (const double l : latencies) result.latency_digest.add(l);
  result.billed_instance_seconds =
      static_cast<double>(instances) * static_cast<double>(registry.size()) *
      horizon;
  result.peak_instances =
      instances * static_cast<std::uint32_t>(registry.size());
  return result;
}

std::vector<Invocation> bursty_invocations(std::size_t functions,
                                           double base_rate, double horizon,
                                           double burst_every,
                                           std::size_t burst_size,
                                           stats::Rng& rng) {
  std::vector<Invocation> out;
  double now = 0.0;
  while (true) {
    now += rng.exponential(base_rate);
    if (now >= horizon) break;
    out.push_back(Invocation{static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(functions) - 1)),
                             now});
  }
  for (double burst = burst_every; burst < horizon; burst += burst_every) {
    const auto f = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(functions) - 1));
    double t = burst;
    for (std::size_t i = 0; i < burst_size; ++i) {
      t += rng.exponential(50.0);  // ~20 ms gaps inside a burst
      if (t >= horizon) break;
      out.push_back(Invocation{f, t});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Invocation& a, const Invocation& b) {
              return a.arrival < b.arrival;
            });
  return out;
}

}  // namespace atlarge::serverless
