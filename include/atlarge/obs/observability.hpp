#pragma once
// One instrumentation plane shared across every layer of a run.
//
// The MELODIC-style argument (and the Massivizing Computer Systems
// "understanding before designing" prerequisite): a multi-layer system
// needs ONE instrumentation plane, not per-layer ad-hoc timers. An
// Observability object bundles a metrics Registry and a span Tracer, plus
// the KernelObserver that bridges the DES kernel's Observer hook onto
// both. Domain simulators accept an optional `obs::Observability*` in
// their config/options structs; when set, the owner of the run's kernel
// wires the plane into it with attach(), and the engines emit their own
// domain-level spans and metrics into the same plane, so an exported
// trace shows kernel and domain activity on one timeline.
//
// The plane also anchors the *continuous* telemetry layer: an attached
// TimeSeries, SloMonitor, and FlightRecorder ride the kernel's sampling
// hook (sampling_hook()/sample_now), so every domain that honors `obs`
// gets sim-time series, burn-rate SLO alerting, and causal incident dumps
// for free — see DESIGN.md's Telemetry section.
//
// A plane is single-run / single-threaded: share one plane across
// sequential runs (metrics accumulate; spans append), but never across
// concurrently running simulations.

#include <cstddef>
#include <string>
#include <utility>

#include "atlarge/obs/flight.hpp"
#include "atlarge/obs/metrics.hpp"
#include "atlarge/obs/slo.hpp"
#include "atlarge/obs/timeseries.hpp"
#include "atlarge/obs/trace.hpp"
#include "atlarge/sim/simulation.hpp"

namespace atlarge::obs {

/// Standard kernel instrumentation: event-transition counters
/// (sim.events_scheduled / sim.events_fired / sim.events_cancelled), a
/// queue-depth gauge (sim.queue_depth), a per-run executed-events
/// digest (sim.run_events), a system-allocator counter
/// (sim.alloc_events — zero for a pre-sized steady-state run), and a
/// "sim.run" span per run()/run_until().
class KernelObserver final : public sim::Observer {
 public:
  KernelObserver(Registry& metrics, Tracer& tracer)
      : tracer_(&tracer),
        scheduled_(&metrics.counter("sim.events_scheduled")),
        fired_(&metrics.counter("sim.events_fired")),
        cancelled_(&metrics.counter("sim.events_cancelled")),
        alloc_events_(&metrics.counter("sim.alloc_events")),
        queue_depth_(&metrics.gauge("sim.queue_depth")),
        run_events_(&metrics.digest("sim.run_events")) {}

  void on_schedule(sim::Time at, std::size_t pending) override {
    (void)at;
    scheduled_->add(1);
    queue_depth_->set(static_cast<double>(pending));
  }

  void on_fire(sim::Time now, std::size_t pending) override {
    (void)now;
    fired_->add(1);
    queue_depth_->set(static_cast<double>(pending));
  }

  void on_cancel(sim::Time now, std::size_t pending) override {
    (void)now;
    cancelled_->add(1);
    queue_depth_->set(static_cast<double>(pending));
  }

  void on_run_begin(sim::Time now) override {
    tracer_->begin("sim.run", "kernel", now);
  }

  void on_run_end(sim::Time now, std::size_t executed) override {
    run_events_->add(static_cast<double>(executed));
    tracer_->end("sim.run", "kernel", now);
  }

  void on_alloc_event() override { alloc_events_->add(1); }

 private:
  Tracer* tracer_;
  Counter* scheduled_;
  Counter* fired_;
  Counter* cancelled_;
  Counter* alloc_events_;
  Gauge* queue_depth_;
  Digest* run_events_;
};

class Observability {
 public:
  /// `trace_capacity` sizes the tracer ring; 0 keeps the tracer disabled
  /// (metrics-only plane — the kernel observer then costs counter bumps
  /// but records no spans).
  explicit Observability(std::size_t trace_capacity = 1 << 16)
      : tracer(trace_capacity), kernel_(metrics, tracer) {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  Registry metrics;
  Tracer tracer;

  /// The observer to pass to sim::Simulation::set_observer.
  sim::Observer* kernel_observer() noexcept { return &kernel_; }

  /// Wires the plane into `sim`: the kernel observer, plus the sampling
  /// hook when a continuous component is attached. Whoever owns a kernel
  /// calls this once before running it — the standalone wrappers
  /// (sched::simulate, serverless::run_platform, autoscale::run_elastic)
  /// on their private kernel, eco::run_ecosystem on its core LP. Engines
  /// that borrow a kernel only emit domain spans and metrics.
  void attach(sim::Simulation& sim) {
    sim.set_observer(&kernel_);
    if (sim::SamplingHook* hook = sampling_hook())
      sim.set_sampling_hook(hook, sampling_interval());
  }

  // ----------------------------------------------------- telemetry plane --
  // Continuous components (none owned; each must outlive the plane or be
  // detached with nullptr). attach() hands sampling_hook() to the kernel
  // when it is non-null, so attaching a TimeSeries or SloMonitor here is
  // all a caller does to get continuous telemetry out of any domain run.

  /// Attach a time-series recorder; its rows advance at every sampling
  /// boundary. When no explicit sampling interval is set, the recorder's
  /// own interval becomes the plane's.
  void attach_timeseries(TimeSeries* series) noexcept { series_ = series; }
  TimeSeries* timeseries() const noexcept { return series_; }

  /// Attach an SLO monitor; it is advanced at every sampling boundary.
  void attach_slo(SloMonitor* slo) noexcept { slo_ = slo; }
  SloMonitor* slo() const noexcept { return slo_; }

  /// Attach a flight recorder; domain engines feed it causal per-entity
  /// events, and the first SLO alert dumps it (see set_alert_dump_path).
  void attach_flight(FlightRecorder* flight) noexcept { flight_ = flight; }
  FlightRecorder* flight() const noexcept { return flight_; }

  /// When set and a flight recorder is attached, the first SLO alert
  /// writes the recorder's Chrome-trace snapshot to `path` (once — the
  /// black box captures the history *leading into* the first incident).
  void set_alert_dump_path(std::string path) {
    alert_dump_path_ = std::move(path);
  }
  const std::string& alert_dump_path() const noexcept {
    return alert_dump_path_;
  }
  bool alert_dumped() const noexcept { return alert_dumped_; }

  /// Sim-time sampling period used when attaching the hook. Defaults to
  /// the attached TimeSeries' interval, or 1.0 with none attached.
  void set_sampling_interval(double interval) noexcept {
    sampling_interval_ = interval;
  }
  double sampling_interval() const noexcept {
    if (sampling_interval_ > 0.0) return sampling_interval_;
    return series_ != nullptr ? series_->interval() : 1.0;
  }

  /// The hook to pass to sim::Simulation::set_sampling_hook, or nullptr
  /// when no continuous component is attached (so attach() skips the
  /// kernel sampling machinery entirely on plain metric/trace planes).
  sim::SamplingHook* sampling_hook() noexcept {
    return series_ != nullptr || slo_ != nullptr ? &hub_ : nullptr;
  }

  /// One sampling boundary at sim-time `t`: record a time-series row,
  /// advance the SLO monitor, and on the first rising-edge alert emit an
  /// "slo.alert" trace instant and dump the flight recorder. Called by the
  /// kernel hook; call directly from non-DES loops (p2p epochs).
  void sample_now(double t) {
    if (series_ != nullptr) series_->sample(t);
    if (slo_ == nullptr) return;
    const std::size_t before = slo_->alerts().size();
    slo_->advance(t);
    if (slo_->alerts().size() == before) return;
    tracer.instant("slo.alert", "slo", t);
    if (flight_ != nullptr && !alert_dump_path_.empty() && !alert_dumped_) {
      flight_->write_chrome_json(alert_dump_path_);
      alert_dumped_ = true;
    }
  }

 private:
  class Hub final : public sim::SamplingHook {
   public:
    explicit Hub(Observability& owner) : owner_(owner) {}
    void on_sample(sim::Time now) override { owner_.sample_now(now); }

   private:
    Observability& owner_;
  };

  KernelObserver kernel_;
  Hub hub_{*this};
  TimeSeries* series_ = nullptr;
  SloMonitor* slo_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  std::string alert_dump_path_;
  double sampling_interval_ = 0.0;
  bool alert_dumped_ = false;
};

}  // namespace atlarge::obs
