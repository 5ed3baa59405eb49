#include "atlarge/sched/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

#include "atlarge/fault/injector.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/descriptive.hpp"

namespace atlarge::sched {

double JobStats::slowdown() const noexcept {
  if (critical_path <= 0.0) return 1.0;
  return std::max(1.0, response() / critical_path);
}

namespace detail {

enum class TaskStatus : std::uint8_t { kPending, kEligible, kRunning, kDone };

struct TaskState {
  TaskStatus status = TaskStatus::kPending;
  double eligible_time = 0.0;
};

struct JobState {
  const workflow::Job* job = nullptr;
  std::vector<TaskState> tasks;
  std::uint32_t user = 0;  // interned Job::user, see TaskRef::user
  double start = -1.0;
  double finish = -1.0;
};

struct MachineState {
  std::uint32_t total = 0;
  std::uint32_t free = 0;
  double speed = 1.0;
  std::uint32_t cluster = 0;
  double base_speed = 1.0;   // speed to restore after a slowdown heals
  double slow_until = 0.0;   // end of the widest slowdown window
  bool down = false;         // crashed, awaiting restart
};

struct RunningTask {
  double finish = 0.0;
  std::uint32_t machine = 0;
  std::uint32_t cores = 0;
  std::size_t ji = 0;
  std::size_t ti = 0;
  std::uint64_t place_seq = 0;  // flight-recorder causal link
  sim::EventHandle completion;
};

class SchedEngine {
 public:
  SchedEngine(const cluster::Environment& env,
              const workflow::Workload& workload, Policy& policy,
              const SimOptions& options, sim::Simulation& sim)
      : env_(env),
        policy_(policy),
        options_(options),
        obs_(options.obs),
        sim_(sim),
        countdown_(workload.jobs) {
    if (obs_ != nullptr) {
      passes_ = &obs_->metrics.counter("sched.passes");
      placed_ = &obs_->metrics.counter("sched.tasks_placed");
      queue_depth_ = &obs_->metrics.gauge("sched.eligible_queue");
      wait_dig_ = &obs_->metrics.digest("sched.task_wait");
      flight_ = obs_->flight();
    }
    const auto machines = env.all_machines();
    if (machines.empty())
      throw std::invalid_argument("simulate: environment has no machines");
    std::uint32_t max_cores = 0;
    machines_.reserve(machines.size());
    for (const auto& m : machines) {
      MachineState ms;
      ms.total = m.cores;
      ms.free = m.cores;
      ms.speed = m.speed;
      ms.cluster = m.cluster;
      ms.base_speed = m.speed;
      machines_.push_back(ms);
      max_cores = std::max(max_cores, m.cores);
    }
    result_.machine_busy_seconds.assign(machines_.size(), 0.0);
    if (flight_ != nullptr) {
      flight_entity_.reserve(machines_.size());
      for (std::size_t mi = 0; mi < machines_.size(); ++mi)
        flight_entity_.push_back(
            flight_->entity("machine/" + std::to_string(mi)));
    }

    jobs_.reserve(workload.jobs.size());
    job_index_.reserve(workload.jobs.size());
    std::unordered_map<std::string_view, std::uint32_t> user_ids;
    for (const auto& job : workload.jobs) {
      job.validate();
      if (!job_index_.emplace(job.id, jobs_.size()).second)
        throw std::invalid_argument("simulate: duplicate job id " +
                                    std::to_string(job.id));
      for (const auto& t : job.tasks) {
        if (t.cores > max_cores)
          throw std::invalid_argument(
              "simulate: task demands more cores than any machine offers");
      }
      JobState js;
      js.job = &job;
      js.user = user_ids
                    .try_emplace(job.user,
                                 static_cast<std::uint32_t>(user_ids.size()))
                    .first->second;
      js.tasks.resize(job.tasks.size());
      jobs_.push_back(std::move(js));
    }
    user_usage_.assign(user_ids.size(), 0.0);

    // Pre-size the kernel for the run's concurrent-event ceiling: one
    // arrival per job, at most one in-flight completion per task, one
    // pending scheduling pass, and two timers per fault event. A matched
    // reserve makes the steady state allocation-free (sim.alloc_events
    // stays 0 under the kernel observer; pinned by sched_test).
    std::size_t total_tasks = 0;
    for (const auto& job : workload.jobs) total_tasks += job.tasks.size();
    const std::size_t fault_events =
        options.faults != nullptr ? options.faults->events().size() : 0;
    sim_.reserve(workload.jobs.size() + total_tasks + 2 * fault_events + 8);
  }

  void prepare() {
    if (obs_ != nullptr)
      obs_->tracer.begin("sched.simulate", "sched", sim_.now());
    if (options_.faults != nullptr && !options_.faults->empty())
      attach_faults();
    for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
      sim_.schedule_at(jobs_[ji].job->submit_time,
                       [this, ji] { arrive(ji); });
    }
  }

  SchedResult collect() {
    finalize();
    if (obs_ != nullptr)
      obs_->tracer.end("sched.simulate", "sched", sim_.now());
    return std::move(result_);
  }

  // ---- fabric seam ----------------------------------------------------

  std::size_t machine_count() const { return machines_.size(); }
  std::uint32_t free_cores_on(std::size_t mi) const {
    return machines_[mi].free;
  }
  std::uint32_t total_cores_on(std::size_t mi) const {
    return machines_[mi].total;
  }
  bool machine_is_down(std::size_t mi) const { return machines_[mi].down; }

  bool reserve_cores(std::size_t mi, std::uint32_t cores) {
    auto& m = machines_[mi];
    if (m.down || m.free < cores) return false;
    m.free -= cores;
    observe_busy();
    return true;
  }

  void release_cores(std::size_t mi, std::uint32_t cores) {
    auto& m = machines_[mi];
    m.free = std::min(m.total, m.free + cores);
    observe_busy();
    if (!queue_.empty()) request_pass();
  }

  void fail_machine(std::size_t mi, double duration) {
    if (machines_[mi].down) return;
    kill_machine(mi, duration);
    sim_.schedule_after(duration, [this, mi] {
      machines_[mi].down = false;
      request_pass();
    });
    request_pass();
  }

 private:
  void attach_faults() {
    injector_.emplace(*options_.faults, obs_);
    injector_->on_kind(fault::FaultKind::kMachineCrash,
                       [this](const fault::FaultEvent& e) { crash(e); });
    injector_->on_kind(fault::FaultKind::kSlowdown,
                       [this](const fault::FaultEvent& e) { slow_down(e); });
    // Attached before arrivals are scheduled, so at equal timestamps an
    // injection fires before the arrival it could affect.
    sim_.set_fault_hook(&*injector_);
  }

  void crash(const fault::FaultEvent& e) {
    const std::size_t mi = e.target % machines_.size();
    if (machines_[mi].down) return;  // overlapping crash, already down
    kill_machine(mi, e.duration);
    sim_.schedule_after(e.duration, [this, mi, e] {
      machines_[mi].down = false;
      injector_->recovered(e, sim_.now());
      request_pass();
    });
    request_pass();
  }

  /// Shared crash body: marks the machine down and kills every task
  /// running on it — its completion is cancelled, its partial work is
  /// lost (busy seconds give back the un-run remainder), and it is
  /// re-queued to run from scratch. Recovery scheduling stays with the
  /// caller (injector path records recovered(), the fabric seam does not).
  void kill_machine(std::size_t mi, double duration) {
    auto& m = machines_[mi];
    m.down = true;
    std::uint64_t crash_seq = 0;
    if (flight_ != nullptr)
      crash_seq = flight_->record(flight_entity_[mi], sim_.now(), "crash",
                                  duration);
    for (auto it = running_.begin(); it != running_.end();) {
      if (it->machine != mi) {
        ++it;
        continue;
      }
      it->completion.cancel();
      result_.machine_busy_seconds[mi] -= it->finish - sim_.now();
      enqueue(it->ji, it->ti);
      ++result_.tasks_requeued;
      if (flight_ != nullptr)
        flight_->record(flight_entity_[mi], sim_.now(), "requeue",
                        static_cast<double>(jobs_[it->ji].job->id),
                        crash_seq);
      m.free += it->cores;
      it = running_.erase(it);
    }
    observe_busy();
  }

  void slow_down(const fault::FaultEvent& e) {
    const std::size_t mi = e.target % machines_.size();
    auto& m = machines_[mi];
    m.speed = m.base_speed * e.magnitude;
    m.slow_until = std::max(m.slow_until, e.time + e.duration);
    sim_.schedule_after(e.duration, [this, mi, e] {
      auto& machine = machines_[mi];
      // Heal only if no later (overlapping) slowdown extended the window.
      if (sim_.now() + 1e-12 < machine.slow_until) return;
      machine.speed = machine.base_speed;
      injector_->recovered(e, sim_.now());
    });
  }

  void arrive(std::size_t ji) {
    const auto& tasks = jobs_[ji].job->tasks;
    for (std::size_t ti = 0; ti < tasks.size(); ++ti)
      if (tasks[ti].deps.empty()) enqueue(ji, ti);
    request_pass();
  }

  void request_pass() {
    if (pass_pending_) return;
    pass_pending_ = true;
    sim_.schedule_after(0.0, [this] { pass(); });
  }

  std::uint32_t free_cores() const {
    std::uint32_t total = 0;
    for (const auto& m : machines_) total += m.free;
    return total;
  }

  std::uint32_t total_cores() const {
    std::uint32_t total = 0;
    for (const auto& m : machines_) total += m.total;
    return total;
  }

  SchedState make_state(std::size_t queued) const {
    SchedState s;
    s.now = sim_.now();
    s.total_cores = total_cores();
    s.free_cores = free_cores();
    s.running_tasks = running_.size();
    s.queued_tasks = queued;
    s.user_usage = user_usage_;
    return s;
  }

  /// Makes a task eligible now and appends it to the queue, stamped with
  /// the next arrival number. Each eligibility (arrival, dependency
  /// unlock, crash requeue) enqueues the task exactly once.
  void enqueue(std::size_t ji, std::size_t ti) {
    auto& js = jobs_[ji];
    js.tasks[ti].status = TaskStatus::kEligible;
    js.tasks[ti].eligible_time = sim_.now();
    const auto& task = js.job->tasks[ti];
    TaskRef ref;
    ref.job_id = js.job->id;
    ref.task_id = static_cast<std::uint32_t>(ti);
    ref.runtime = task.runtime;
    ref.cores = task.cores;
    ref.submit_time = js.job->submit_time;
    ref.eligible_time = sim_.now();
    ref.seq = next_seq_++;
    ref.user = js.user;
    queue_.push_back(ref);
  }

  /// Earliest time a machine can host `cores` given current running tasks.
  double compute_shadow(std::uint32_t cores) const {
    double shadow = std::numeric_limits<double>::infinity();
    for (std::size_t mi = 0; mi < machines_.size(); ++mi) {
      const auto& m = machines_[mi];
      if (m.down) continue;
      if (m.total < cores) continue;
      if (m.free >= cores) return sim_.now();
      // Running tasks on this machine, by finish time.
      std::vector<const RunningTask*> local;
      for (const auto& r : running_)
        if (r.machine == mi) local.push_back(&r);
      std::sort(local.begin(), local.end(),
                [](const RunningTask* a, const RunningTask* b) {
                  return a->finish < b->finish;
                });
      std::uint32_t available = m.free;
      for (const auto* r : local) {
        available += r->cores;
        if (available >= cores) {
          shadow = std::min(shadow, r->finish);
          break;
        }
      }
    }
    return shadow;
  }

  /// Most free cores on any up machine: find_fit(cores) finds a machine
  /// exactly when cores <= widest_free().
  std::uint32_t widest_free() const {
    std::uint32_t widest = 0;
    for (const auto& m : machines_)
      if (!m.down) widest = std::max(widest, m.free);
    return widest;
  }

  /// First machine that fits, preferring faster machines then lower ids.
  std::size_t find_fit(std::uint32_t cores) const {
    std::size_t best = machines_.size();
    for (std::size_t mi = 0; mi < machines_.size(); ++mi) {
      if (machines_[mi].down) continue;
      if (machines_[mi].free < cores) continue;
      if (best == machines_.size() ||
          machines_[mi].speed > machines_[best].speed) {
        best = mi;
      }
    }
    return best;
  }

  /// One scheduling pass over the persistent queue. tick() and order()
  /// run on every pass, even when nothing can be placed: a randomized
  /// policy draws on each order() call and the portfolio selects inside
  /// tick(), so skipping either would change outputs.
  void pass() {
    pass_pending_ = false;
    if (queue_.empty()) return;
    if (sim_.now() < blocked_until_) {
      sim_.schedule_at(blocked_until_, [this] { request_pass(); });
      return;
    }

    if (obs_ != nullptr) {
      passes_->add(1);
      queue_depth_->set(static_cast<double>(queue_.size()));
      obs_->tracer.begin("sched.pass", "sched", sim_.now());
    }
    const std::size_t queued = queue_.size();
    const SchedState state = make_state(queued);

    const double overhead = policy_.tick(state, queue_);
    if (overhead > 0.0) {
      blocked_until_ = sim_.now() + overhead;
      result_.decision_overhead += overhead;
      sim_.schedule_at(blocked_until_, [this] { request_pass(); });
      if (obs_ != nullptr) obs_->tracer.end("sched.pass", "sched", sim_.now());
      return;
    }

    policy_.order(queue_, state);
    if (queue_.size() != queued)
      throw std::logic_error(
          "simulate: Policy::order added or removed queued tasks");

    // Greedy placement in policy order. A task wider than every up
    // machine's free cores cannot fit, so the scan skips it without a
    // machine search and stops once no up machine has a free core (every
    // task needs at least one, Job::validate).
    bool constrain = false;
    double shadow = std::numeric_limits<double>::infinity();
    std::uint32_t widest = widest_free();
    placed_at_.clear();
    for (std::size_t i = 0; i < queue_.size() && widest > 0; ++i) {
      const TaskRef& ref = queue_[i];
      if (ref.cores > widest) {
        if (policy_.backfilling() && !constrain) {
          constrain = true;
          shadow = compute_shadow(ref.cores);
        }
        continue;
      }
      const std::size_t mi = find_fit(ref.cores);
      const double latency =
          machines_[mi].cluster == 0 ? 0.0 : env_.inter_cluster_latency;
      const double elapsed = latency + ref.runtime / machines_[mi].speed;
      if (constrain && sim_.now() + elapsed > shadow) continue;
      place(ref, mi, elapsed);
      placed_at_.push_back(i);
      widest = widest_free();
    }
    drop_placed();
    if (obs_ != nullptr) {
      queue_depth_->set(static_cast<double>(queue_.size()));
      obs_->tracer.end("sched.pass", "sched", sim_.now());
    }
  }

  /// Removes this pass's placed tasks (ascending positions in placed_at_)
  /// in one stable sweep, so the rest keep the policy's order. Each run of
  /// survivors between two placed positions moves as one block, a memmove
  /// since TaskRef is trivially copyable.
  void drop_placed() {
    if (placed_at_.empty()) return;
    const auto at = [this](std::size_t i) {
      return queue_.begin() + static_cast<std::ptrdiff_t>(i);
    };
    placed_at_.push_back(queue_.size());  // the last run ends the queue
    auto out = at(placed_at_.front());
    for (std::size_t k = 0; k + 1 < placed_at_.size(); ++k)
      out = std::move(at(placed_at_[k] + 1), at(placed_at_[k + 1]), out);
    queue_.erase(out, queue_.end());
  }

  void place(const TaskRef& ref, std::size_t mi, double elapsed) {
    const auto job = job_index_.find(ref.job_id);
    if (job == job_index_.end() ||
        ref.task_id >= jobs_[job->second].tasks.size() ||
        jobs_[job->second].tasks[ref.task_id].status !=
            TaskStatus::kEligible)
      throw std::logic_error("simulate: Policy::order altered a queued task");
    const std::size_t ji = job->second;
    const std::size_t ti = ref.task_id;

    auto& js = jobs_[ji];
    js.tasks[ti].status = TaskStatus::kRunning;
    if (js.start < 0.0) js.start = sim_.now();

    if (obs_ != nullptr) {
      placed_->add(1);
      wait_dig_->add(sim_.now() - js.tasks[ti].eligible_time);
    }
    machines_[mi].free -= ref.cores;
    observe_busy();
    result_.machine_busy_seconds[mi] += elapsed;

    RunningTask rt;
    rt.finish = sim_.now() + elapsed;
    rt.machine = static_cast<std::uint32_t>(mi);
    rt.cores = ref.cores;
    rt.ji = ji;
    rt.ti = ti;
    if (flight_ != nullptr)
      rt.place_seq = flight_->record(flight_entity_[mi], sim_.now(), "place",
                                     static_cast<double>(ref.job_id));
    rt.completion = sim_.schedule_after(
        elapsed, [this, ji, ti, mi, cores = ref.cores, elapsed] {
          complete(ji, ti, mi, cores, elapsed);
        });
    running_.push_back(rt);
  }

  void complete(std::size_t ji, std::size_t ti, std::size_t mi,
                std::uint32_t cores, double elapsed) {
    auto& js = jobs_[ji];
    js.tasks[ti].status = TaskStatus::kDone;
    machines_[mi].free += cores;
    observe_busy();
    ++result_.tasks_completed;

    // Remove this task's running record.
    const auto rit = std::find_if(
        running_.begin(), running_.end(),
        [&](const RunningTask& r) { return r.ji == ji && r.ti == ti; });
    if (rit != running_.end()) {
      if (flight_ != nullptr)
        flight_->record(flight_entity_[mi], sim_.now(), "complete",
                        static_cast<double>(js.job->id), rit->place_seq);
      running_.erase(rit);
    }

    user_usage_[js.user] += elapsed * cores;

    if (countdown_.finish(ji, static_cast<workflow::TaskId>(ti),
                          [&](workflow::TaskId d) { enqueue(ji, d); }))
      js.finish = sim_.now();
    request_pass();
  }

  void observe_busy() {
    std::uint32_t busy = 0;
    for (const auto& m : machines_) busy += m.total - m.free;
    busy_.observe(sim_.now(), static_cast<double>(busy));
  }

  void finalize() {
    double first_submit = std::numeric_limits<double>::infinity();
    std::vector<double> slowdowns;
    std::vector<double> waits;
    for (const auto& js : jobs_) {
      first_submit = std::min(first_submit, js.job->submit_time);
      if (js.finish < 0.0) continue;  // unfinished at time limit
      JobStats stats;
      stats.id = js.job->id;
      stats.submit = js.job->submit_time;
      stats.start = js.start;
      stats.finish = js.finish;
      stats.critical_path = js.job->critical_path();
      result_.makespan = std::max(result_.makespan, js.finish);
      slowdowns.push_back(stats.slowdown());
      waits.push_back(stats.wait());
      result_.jobs.push_back(stats);
    }
    result_.mean_wait = stats::mean(waits);
    result_.mean_slowdown = stats::mean(slowdowns);
    result_.median_slowdown = stats::quantile(slowdowns, 0.5);
    result_.p95_slowdown = stats::quantile(slowdowns, 0.95);
    result_.p999_slowdown = stats::quantile(slowdowns, 0.999);
    for (const double w : waits) result_.wait_digest.add(w);
    for (const double s : slowdowns) result_.slowdown_digest.add(s);
    const double horizon = result_.makespan - (std::isfinite(first_submit)
                                                   ? first_submit
                                                   : 0.0);
    if (horizon > 0.0) {
      result_.utilization = busy_.average(result_.makespan) /
                            static_cast<double>(total_cores());
    }
    if (injector_.has_value()) {
      result_.faults_injected = injector_->injected();
      result_.faults_recovered = injector_->recovered_count();
    }
  }

  const cluster::Environment& env_;
  Policy& policy_;
  SimOptions options_;
  obs::Observability* obs_ = nullptr;
  obs::Counter* passes_ = nullptr;
  obs::Counter* placed_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Digest* wait_dig_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::vector<std::size_t> flight_entity_;  // per-machine ring ids

  sim::Simulation& sim_;  // borrowed: simulate()'s own or a shared one
  std::vector<MachineState> machines_;
  std::vector<JobState> jobs_;
  workflow::Countdown countdown_;  // indexed like jobs_
  std::unordered_map<std::uint64_t, std::size_t> job_index_;  // id -> jobs_
  // The eligible queue, persistent across passes in the order the policy
  // left it; newly eligible tasks are appended with the next seq stamp.
  std::vector<TaskRef> queue_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::size_t> placed_at_;  // queue positions placed this pass
  std::vector<RunningTask> running_;
  std::vector<double> user_usage_;  // core-seconds done, by interned user
  stats::TimeWeighted busy_;
  bool pass_pending_ = false;
  double blocked_until_ = 0.0;
  std::optional<fault::Injector> injector_;
  SchedResult result_;
};

}  // namespace detail

SchedResult simulate(const cluster::Environment& env,
                     const workflow::Workload& workload, Policy& policy,
                     const SimOptions& options) {
  sim::Simulation sim;
  if (options.obs != nullptr) options.obs->attach(sim);
  detail::SchedEngine engine(env, workload, policy, options, sim);
  engine.prepare();
  sim.run_until(options.time_limit);
  return engine.collect();
}

SchedDriver::SchedDriver(const cluster::Environment& env,
                         const workflow::Workload& workload, Policy& policy,
                         const SimOptions& options, sim::Simulation& sim)
    : engine_(std::make_unique<detail::SchedEngine>(env, workload, policy,
                                                    options, sim)) {}

SchedDriver::~SchedDriver() = default;

void SchedDriver::prepare() { engine_->prepare(); }
SchedResult SchedDriver::collect() { return engine_->collect(); }

std::size_t SchedDriver::machine_count() const {
  return engine_->machine_count();
}
std::uint32_t SchedDriver::free_cores_on(std::size_t machine) const {
  return engine_->free_cores_on(machine);
}
std::uint32_t SchedDriver::total_cores_on(std::size_t machine) const {
  return engine_->total_cores_on(machine);
}
bool SchedDriver::machine_down(std::size_t machine) const {
  return engine_->machine_is_down(machine);
}
bool SchedDriver::reserve_cores(std::size_t machine, std::uint32_t cores) {
  return engine_->reserve_cores(machine, cores);
}
void SchedDriver::release_cores(std::size_t machine, std::uint32_t cores) {
  engine_->release_cores(machine, cores);
}
void SchedDriver::fail_machine(std::size_t machine, double duration) {
  engine_->fail_machine(machine, duration);
}

}  // namespace atlarge::sched
