#include "atlarge/trace/catalog.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "atlarge/autoscale/autoscalers.hpp"
#include "atlarge/autoscale/elastic_sim.hpp"
#include "atlarge/cluster/machine.hpp"
#include "atlarge/eco/ecosystem.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/obs/metrics.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/workflow/generators.hpp"

namespace atlarge::trace::catalog {
namespace {

// The generators run to completion; a cap abandons generation mid-flight
// via this internal control-flow exception (cheap relative to the events
// a cap skips, and invisible outside this translation unit).
struct StopGeneration {};

std::vector<Scenario> build_catalog() {
  std::vector<Scenario> out;

  {
    // Social feed fan-out on the FaaS platform: a post written by a
    // popular entity fans out to follower timelines; a viral moment is a
    // flashcrowd of request traffic.
    Scenario s;
    s.name = "feed-fanout";
    s.family = "social feed fan-out";
    s.engine = "serverless";
    s.shape = Scenario::Shape::kFlashcrowd;
    s.flashcrowd.duration = 1800.0;
    s.flashcrowd.base_rate = 30.0;
    s.flashcrowd.surge_time = 900.0;
    s.flashcrowd.surge_rate = 120.0;
    s.flashcrowd.surge_width = 60.0;
    s.flashcrowd.mix.entities = 200'000;
    s.flashcrowd.mix.zipf_s = 0.99;
    s.flashcrowd.mix.regions = 4;
    s.flashcrowd.mix.size_log_mean = 1.5;
    s.flashcrowd.mix.size_log_sigma = 0.8;
    s.flashcrowd.session.tail = gen::SessionShape::Tail::kPareto;
    s.flashcrowd.session.pareto_alpha = 1.5;
    s.flashcrowd.session.pareto_scale = 20.0;
    s.flashcrowd.session.max_duration = 900.0;
    s.flashcrowd.session.mean_request_gap = 2.0;
    s.flashcrowd.session.max_requests = 64;
    s.default_seed = 101;
    out.push_back(std::move(s));
  }
  {
    // Video-streaming flashcrowd on the P2P swarm: a premiere pulls a
    // surge of peers who fetch the content and churn away.
    Scenario s;
    s.name = "video-flashcrowd";
    s.family = "video-streaming flashcrowd";
    s.engine = "p2p";
    s.shape = Scenario::Shape::kFlashcrowd;
    s.flashcrowd.duration = 3600.0;
    s.flashcrowd.base_rate = 0.5;
    s.flashcrowd.surge_time = 600.0;
    s.flashcrowd.surge_rate = 30.0;
    s.flashcrowd.surge_width = 120.0;
    s.flashcrowd.mix.entities = 50'000;
    s.flashcrowd.mix.regions = 8;
    s.flashcrowd.session.tail = gen::SessionShape::Tail::kLognormal;
    s.flashcrowd.session.log_mu = 5.0;
    s.flashcrowd.session.log_sigma = 0.8;
    s.flashcrowd.session.max_duration = 3600.0;
    s.flashcrowd.session.mean_request_gap = 30.0;
    s.flashcrowd.session.max_requests = 32;
    s.default_seed = 202;
    out.push_back(std::move(s));
  }
  {
    // E-commerce checkout spike on the cluster scheduler: each session is
    // an order-processing job; a sale event is an arrival spike.
    Scenario s;
    s.name = "ecommerce-spike";
    s.family = "e-commerce sale spike";
    s.engine = "sched";
    s.shape = Scenario::Shape::kFlashcrowd;
    s.flashcrowd.duration = 7200.0;
    s.flashcrowd.base_rate = 0.5;
    s.flashcrowd.surge_time = 3600.0;
    s.flashcrowd.surge_rate = 8.0;
    s.flashcrowd.surge_width = 120.0;
    s.flashcrowd.mix.entities = 100'000;
    s.flashcrowd.mix.regions = 4;
    s.flashcrowd.session.tail = gen::SessionShape::Tail::kPareto;
    s.flashcrowd.session.pareto_alpha = 1.8;
    s.flashcrowd.session.pareto_scale = 60.0;
    s.flashcrowd.session.max_duration = 1800.0;
    s.flashcrowd.session.mean_request_gap = 10.0;
    s.flashcrowd.session.max_requests = 64;
    s.default_seed = 303;
    out.push_back(std::move(s));
  }
  {
    // Gaming / leaderboard diurnal cycle on the elastic pool: player
    // sessions follow the day/night rhythm; the autoscaler chases it.
    Scenario s;
    s.name = "gaming-diurnal";
    s.family = "gaming/leaderboard diurnal cycle";
    s.engine = "autoscale";
    s.shape = Scenario::Shape::kDiurnal;
    s.diurnal.duration = 14'400.0;
    s.diurnal.mean_rate = 0.6;
    s.diurnal.amplitude = 0.8;
    s.diurnal.period = 14'400.0;
    s.diurnal.phase = 0.0;
    s.diurnal.mix.entities = 80'000;
    s.diurnal.mix.regions = 6;
    s.diurnal.session.tail = gen::SessionShape::Tail::kLognormal;
    s.diurnal.session.log_mu = 5.5;
    s.diurnal.session.log_sigma = 1.0;
    s.diurnal.session.max_duration = 3600.0;
    s.diurnal.session.mean_request_gap = 20.0;
    s.diurnal.session.max_requests = 48;
    s.default_seed = 404;
    out.push_back(std::move(s));
  }
  {
    // FaaS on the shared fabric vs reserved capacity, inside the full
    // ecosystem composition: the same request flashcrowd replays once
    // with the serverless tier leasing machines from the cluster fabric
    // it shares with MMOG zones and workflow DAGs, and once on reserved
    // (always-warm, contention-free) instances. The metric pairs quote
    // the price of co-tenancy directly.
    Scenario s;
    s.name = "eco-faas-vs-reserved";
    s.family = "ecosystem co-tenancy";
    s.engine = "eco";
    s.shape = Scenario::Shape::kFlashcrowd;
    s.flashcrowd.duration = 2400.0;
    s.flashcrowd.base_rate = 4.0;
    s.flashcrowd.surge_time = 1200.0;
    s.flashcrowd.surge_rate = 24.0;
    s.flashcrowd.surge_width = 90.0;
    s.flashcrowd.mix.entities = 50'000;
    s.flashcrowd.mix.zipf_s = 0.99;
    s.flashcrowd.mix.regions = 4;
    s.flashcrowd.session.tail = gen::SessionShape::Tail::kPareto;
    s.flashcrowd.session.pareto_alpha = 1.6;
    s.flashcrowd.session.pareto_scale = 30.0;
    s.flashcrowd.session.max_duration = 1200.0;
    s.flashcrowd.session.mean_request_gap = 4.0;
    s.flashcrowd.session.max_requests = 48;
    s.default_seed = 505;
    out.push_back(std::move(s));
  }
  return out;
}

// Counts stream traffic (and enforces the event cap) on the way into an
// engine adapter, so one pull pass yields both the census and the replay.
class CountingStream final : public EventStream {
 public:
  CountingStream(EventStream& inner, ReplaySummary& summary,
                 std::size_t max_events)
      : inner_(&inner), summary_(&summary), max_events_(max_events) {}

  bool next(Event& out) override {
    if (max_events_ != 0 && summary_->events >= max_events_) return false;
    if (!inner_->next(out)) return false;
    ++summary_->events;
    if (out.kind == static_cast<std::int64_t>(EventKind::kSessionStart))
      ++summary_->sessions;
    else if (out.kind == static_cast<std::int64_t>(EventKind::kRequest))
      ++summary_->requests;
    return true;
  }

 private:
  EventStream* inner_;
  ReplaySummary* summary_;
  std::size_t max_events_;
};

std::string format_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "nan";
  return std::string(buf, ptr);
}

void replay_serverless(CountingStream& stream, ReplaySummary& summary) {
  // Three regional feed functions; requests route by region.
  const std::vector<serverless::FunctionSpec> registry = {
      {"fanout-write", 0.020, 0.8, 256.0},
      {"timeline-read", 0.005, 0.4, 128.0},
      {"notify", 0.010, 0.5, 128.0},
  };
  RequestInvocationSource source(stream, registry.size());
  serverless::PlatformConfig config;
  config.keep_alive = 60.0;
  config.max_instances = 4096;
  config.record_invocations = false;  // O(in-flight) memory
  const auto result = serverless::run_platform(registry, source, config);
  summary.metrics = {
      {"p50_latency", result.p50_latency},
      {"p99_latency", result.p99_latency},
      {"cold_fraction", result.cold_fraction},
      {"billed_instance_seconds", result.billed_instance_seconds},
      {"busy_instance_seconds", result.busy_instance_seconds},
      {"peak_instances", static_cast<double>(result.peak_instances)},
      {"failed_invocations",
       static_cast<double>(result.failed_invocations)},
      {"success_rate", result.success_rate},
  };
}

void replay_p2p(const Scenario& scenario, CountingStream& stream,
                ReplaySummary& summary) {
  SessionArrivalSource source(stream);
  p2p::SwarmConfig config;
  config.content_mb = 350.0;
  // A flashcrowd-sized origin: thousands of leechers arrive before anyone
  // seeds back, and the fluid model bootstraps from seed capacity alone —
  // a 16 Mbps origin would leave the whole surge unfinished at horizon.
  config.seed_upload_mbps = 64.0;
  config.seed_time_mean = 600.0;
  config.initial_seeds = 8;
  config.seed = 42;  // fixed: replay determinism is part of the contract
  const auto result =
      p2p::simulate_swarm(config, source, scenario.horizon() * 2.0);
  summary.metrics = {
      {"finished", static_cast<double>(result.finished)},
      {"aborted", static_cast<double>(result.aborted)},
      {"peak_swarm_size", static_cast<double>(result.peak_swarm_size)},
      {"mean_download_time", result.mean_download_time},
      {"median_download_time", result.median_download_time},
  };
}

void replay_sched(CountingStream& stream, ReplaySummary& summary) {
  const auto workload = to_workload(stream);
  const auto env = cluster::make_homogeneous_cluster("replay", 16, 8);
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, workload, policy);
  summary.metrics = {
      {"makespan", result.makespan},
      {"mean_wait", result.mean_wait},
      {"mean_slowdown", result.mean_slowdown},
      {"utilization", result.utilization},
      {"tasks_completed", static_cast<double>(result.tasks_completed)},
  };
}

void replay_autoscale(CountingStream& stream, ReplaySummary& summary) {
  const auto workload = to_workload(stream);
  autoscale::ReactAutoscaler autoscaler;
  autoscale::ElasticConfig config;
  config.max_machines = 64;
  const auto result = autoscale::run_elastic(workload, autoscaler, config);
  double rented_seconds = 0.0;
  for (const double r : result.rentals) rented_seconds += r;
  summary.metrics = {
      {"makespan", result.makespan},
      {"mean_slowdown", result.mean_slowdown},
      {"mean_response", result.mean_response},
      {"deadline_violations",
       static_cast<double>(result.deadline_violations)},
      {"deadline_total", static_cast<double>(result.deadline_total)},
      {"rented_machine_seconds", rented_seconds},
  };
}

// The co-tenant spec shared by both sides of the eco comparison: MMOG
// zones autoscaled off the fabric and workflow DAGs scheduled on it, with
// fixed seeds (replay determinism is part of the contract). Only the
// serverless backing differs between the two runs.
eco::EcosystemSpec eco_replay_spec(std::vector<serverless::Invocation> invs,
                                   double horizon) {
  eco::EcosystemSpec spec;
  spec.horizon = horizon;
  // Sized so the three tenants genuinely contend: MMOG demand alone wants
  // more machines than the fabric has at peak population.
  spec.fabric.machines = 6;
  spec.fabric.cores_per_machine = 8;
  spec.fabric.provisioning_delay = 45.0;

  spec.serverless.enabled = true;
  spec.serverless.backing = eco::ServerlessBacking::kCluster;
  spec.serverless.instance_cores = 1;
  spec.serverless.registry = {
      {"fanout-write", 0.020, 0.8, 256.0},
      {"timeline-read", 0.005, 0.4, 128.0},
      {"notify", 0.010, 0.5, 128.0},
  };
  spec.serverless.config.keep_alive = 60.0;
  spec.serverless.config.prewarmed = 0;
  spec.serverless.invocations = std::move(invs);

  spec.mmog.enabled = true;
  spec.mmog.provisioning = eco::ZoneProvisioning::kAutoscaled;
  spec.mmog.autoscaler = "React";
  spec.mmog.avatars_per_machine = 32;
  spec.mmog.report_interval = 30.0;
  spec.mmog.initial_machines = 1;
  spec.mmog.config.zones = 4;
  spec.mmog.config.crossing_time = 5.0;
  spec.mmog.config.act_mean = 25.0;
  spec.mmog.config.migrate_prob = 0.1;
  spec.mmog.config.session_mean = 1'500.0;
  spec.mmog.config.seed = 42;
  spec.mmog.arrivals = mmog::synthetic_zone_arrivals(
      256, spec.mmog.config.zones, 0.6 * horizon, 42);

  spec.dags.enabled = true;
  spec.dags.scheduling = eco::DagScheduling::kSharedFabric;
  spec.dags.policy = "FCFS";
  workflow::WorkloadSpec jobs;
  jobs.cls = workflow::WorkloadClass::kSynthetic;
  jobs.jobs = 24;
  jobs.horizon = 0.5 * horizon;
  jobs.seed = 42;
  spec.dags.workload = workflow::generate(jobs);
  return spec;
}

void replay_eco(const Scenario& scenario, CountingStream& stream,
                ReplaySummary& summary) {
  // Materialize the request stream once; both sides of the comparison
  // replay the identical invocations.
  RequestInvocationSource source(stream, 3);
  std::vector<serverless::Invocation> invocations;
  serverless::Invocation inv;
  while (source.next(inv)) invocations.push_back(inv);

  // Give the ecosystem headroom past the trace horizon so in-flight work
  // (provisioning, queued logins, tail jobs) drains deterministically.
  const double horizon = scenario.horizon() * 1.5;
  const eco::EcosystemResult shared =
      eco::run_ecosystem(eco_replay_spec(invocations, horizon));

  eco::EcosystemSpec reserved_spec = eco_replay_spec(invocations, horizon);
  reserved_spec.serverless.backing = eco::ServerlessBacking::kAbstract;
  reserved_spec.serverless.config.prewarmed = 4;
  const eco::EcosystemResult reserved = eco::run_ecosystem(reserved_spec);

  summary.metrics = {
      {"shared_p95_latency", shared.faas.p95_latency},
      {"reserved_p95_latency", reserved.faas.p95_latency},
      {"shared_p999_latency", shared.faas.p999_latency},
      {"reserved_p999_latency", reserved.faas.p999_latency},
      {"shared_cold_fraction", shared.faas.cold_fraction},
      {"reserved_cold_fraction", reserved.faas.cold_fraction},
      {"shared_failed", static_cast<double>(shared.faas.failed_invocations)},
      {"shared_faas_denials",
       static_cast<double>(shared.fabric.faas_denials)},
      {"shared_machine_leases",
       static_cast<double>(shared.fabric.machine_leases)},
      {"shared_queued_logins",
       static_cast<double>(shared.zones.queued_logins)},
      {"shared_dag_mean_wait", shared.dags.mean_wait},
      {"reserved_dag_mean_wait", reserved.dags.mean_wait},
  };
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> catalog = build_catalog();
  return catalog;
}

const Scenario* find(std::string_view name) {
  for (const Scenario& s : scenarios())
    if (s.name == name) return &s;
  return nullptr;
}

void generate(const Scenario& scenario, std::uint64_t seed,
              const EventSink& sink) {
  switch (scenario.shape) {
    case Scenario::Shape::kFlashcrowd:
      gen::flashcrowd(scenario.flashcrowd, seed, sink);
      break;
    case Scenario::Shape::kDiurnal:
      gen::diurnal(scenario.diurnal, seed, sink);
      break;
  }
}

std::vector<Event> events(const Scenario& scenario, std::uint64_t seed,
                          std::size_t max_events) {
  std::vector<Event> out;
  try {
    generate(scenario, seed, [&](const Event& e) {
      if (max_events != 0 && out.size() >= max_events)
        throw StopGeneration{};
      out.push_back(e);
    });
  } catch (const StopGeneration&) {
  }
  return out;
}

std::uint64_t write_trace(const Scenario& scenario, const std::string& path,
                          std::uint64_t seed, std::size_t max_events,
                          WriterOptions options) {
  TraceWriter writer(path, options);
  std::uint64_t written = 0;
  try {
    generate(scenario, seed, [&](const Event& e) {
      if (max_events != 0 && written >= max_events) throw StopGeneration{};
      writer.append(e);
      ++written;
    });
  } catch (const StopGeneration&) {
  }
  writer.finish();
  return written;
}

RequestInvocationSource::RequestInvocationSource(EventStream& events,
                                                std::size_t functions)
    : events_(&events), functions_(functions) {
  if (functions_ == 0)
    throw std::invalid_argument(
        "RequestInvocationSource: functions must be > 0");
}

bool RequestInvocationSource::next(serverless::Invocation& out) {
  Event e;
  while (events_->next(e)) {
    if (e.kind != static_cast<std::int64_t>(EventKind::kRequest)) continue;
    out.function = static_cast<std::size_t>(e.region) % functions_;
    out.arrival = e.t_seconds();
    return true;
  }
  return false;
}

bool SessionArrivalSource::next(double& out) {
  Event e;
  while (events_->next(e)) {
    if (e.kind != static_cast<std::int64_t>(EventKind::kSessionStart))
      continue;
    out = e.t_seconds();
    return true;
  }
  return false;
}

workflow::Workload to_workload(EventStream& events, std::size_t max_jobs,
                               double runtime_scale) {
  workflow::Workload workload;
  workload.name = "trace-replay";
  Event e;
  while (events.next(e)) {
    if (e.kind != static_cast<std::int64_t>(EventKind::kSessionStart))
      continue;
    if (max_jobs != 0 && workload.jobs.size() >= max_jobs) break;
    workflow::Job job;
    job.id = workload.jobs.size();
    job.submit_time = e.t_seconds();
    job.user = "region-" + std::to_string(e.region);
    workflow::Task task;
    // The start event's size field carries the session duration in ms;
    // scale it into a schedulable service demand.
    const double session_s = static_cast<double>(e.size) * 1e-3;
    task.runtime = std::min(600.0, std::max(1.0, session_s * runtime_scale));
    task.cores = 1 + static_cast<std::uint32_t>(e.entity % 4);
    job.tasks.push_back(task);
    workload.jobs.push_back(std::move(job));
  }
  workload.normalize();
  return workload;
}

std::string ReplaySummary::text() const {
  std::string out;
  out += "scenario=" + scenario + "\n";
  out += "engine=" + engine + "\n";
  out += "events=" + std::to_string(events) + "\n";
  out += "sessions=" + std::to_string(sessions) + "\n";
  out += "requests=" + std::to_string(requests) + "\n";
  for (const auto& [name, value] : metrics)
    out += name + "=" + format_double(value) + "\n";
  return out;
}

ReplaySummary replay(const Scenario& scenario, EventStream& events,
                     const ReplayOptions& options) {
  ReplaySummary summary;
  summary.scenario = scenario.name;
  summary.engine = scenario.engine;
  CountingStream counted(events, summary, options.max_events);
  if (scenario.engine == "serverless")
    replay_serverless(counted, summary);
  else if (scenario.engine == "p2p")
    replay_p2p(scenario, counted, summary);
  else if (scenario.engine == "sched")
    replay_sched(counted, summary);
  else if (scenario.engine == "autoscale")
    replay_autoscale(counted, summary);
  else if (scenario.engine == "eco")
    replay_eco(scenario, counted, summary);
  else
    throw std::logic_error("replay: unknown engine " + scenario.engine);
  if (options.obs != nullptr) {
    options.obs->counter("trace.replay_events").add(summary.events);
    options.obs->counter("trace.replay_sessions").add(summary.sessions);
    options.obs->counter("trace.replay_requests").add(summary.requests);
  }
  return summary;
}

ReplaySummary replay_file(const Scenario& scenario, const std::string& path,
                          const ReplayOptions& options) {
  ReaderOptions reader_options;
  reader_options.obs = options.obs;
  TraceReader reader(path, reader_options);
  AtlEventStream stream(reader);
  return replay(scenario, stream, options);
}

ReplaySummary replay_generated(const Scenario& scenario, std::uint64_t seed,
                               const ReplayOptions& options) {
  const auto evs = events(scenario, seed, options.max_events);
  VectorEventStream stream(evs);
  return replay(scenario, stream, options);
}

}  // namespace atlarge::trace::catalog
