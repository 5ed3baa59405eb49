// table9-portfolio: every study of the Table 9 harness with its own
// configs — 7 rows x (7 baseline policies + the portfolio), the
// [114]->[115] online-cost arc and the [120] mis-selection arc. One client,
// closed loop: each simulate call starts when the previous one returns.
//
// The plain simulator and the portfolio's nested what-if simulations do
// all the work; no threads, shards or trace I/O.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/workflow/generators.hpp"
#include "bench.hpp"

using namespace atlarge;

namespace perfbench {
namespace {

struct Study {
  std::string name;
  cluster::Environment env;
  workflow::Workload workload;
  std::vector<sched::PortfolioConfig> portfolios;  // one call each
  bool baselines = false;
};

workflow::Workload make_workload(workflow::WorkloadClass cls, std::size_t jobs,
                                 std::uint64_t seed) {
  workflow::WorkloadSpec spec;
  spec.cls = cls;
  spec.jobs = jobs;
  spec.horizon = 4'000.0;
  spec.seed = seed;
  return workflow::generate(spec);
}

/// The harness's studies with its job workloads (seeds 100 + row, 42, 7);
/// the reduced self-check shrinks every workload. The benchmark seed drives
/// the random streams the studies consume (the RANDOM policy and the
/// portfolio's utility noise), not the job mix: the pass is the paper's
/// table, and resampling 60-job workloads moves its cost by more than the
/// host's own run-to-run spread.
std::vector<Study> make_studies(const Options& o) {
  using workflow::WorkloadClass;
  const std::size_t jobs = o.reduced ? 12 : 60;
  const auto wl = [&](WorkloadClass cls, std::uint64_t seed) {
    return make_workload(cls, jobs, seed);
  };
  std::vector<Study> studies;
  const auto row = [&](const char* name, WorkloadClass cls,
                       cluster::Environment env) {
    const std::uint64_t base = 100 + studies.size();
    studies.push_back({name, std::move(env), wl(cls, base), {{}}, true});
  };
  row("t9.114.syn-cl", WorkloadClass::kSynthetic,
      cluster::make_homogeneous_cluster("CL", 4, 8));
  row("t9.115.sci-g", WorkloadClass::kScientific,
      cluster::make_grid("G", 3, 2, 8));
  row("t9.116.gam-cl", WorkloadClass::kGaming,
      cluster::make_homogeneous_cluster("CL", 4, 8));
  row("t9.117.ce-gdc", WorkloadClass::kComputerEng,
      cluster::make_geo_distributed("GDC", 3, 2, 8, 0.05));
  row("t9.118.bc-mcd", WorkloadClass::kBusinessCritical,
      cluster::make_multi_cluster("MCD", 3, 2, 8));
  row("t9.119.ind-cd", WorkloadClass::kIndustrial,
      cluster::make_cloud("CD", 8, 8, 60.0));
  row("t9.120.bd-cl", WorkloadClass::kBigData,
      cluster::make_homogeneous_cluster("Cl", 4, 8));

  const auto portfolio_seed =
      derive_seed(o.seed, sched::PortfolioConfig{}.seed);
  for (auto& st : studies) st.portfolios[0].seed = portfolio_seed;
  sched::PortfolioConfig plain;
  plain.seed = portfolio_seed;
  sched::PortfolioConfig costly = plain;
  costly.cost_per_task_policy = 0.2;
  sched::PortfolioConfig active4 = costly;
  active4.active_set = 4;
  sched::PortfolioConfig active2 = costly;
  active2.active_set = 2;
  studies.push_back({"arc.online-cost",
                     cluster::make_homogeneous_cluster("CL", 4, 8),
                     wl(WorkloadClass::kScientific, 42),
                     {plain, costly, active4, active2},
                     false});

  std::vector<sched::PortfolioConfig> noisy;
  for (double noise : {0.0, 1.0, 3.0}) {
    sched::PortfolioConfig c;
    c.utility_noise = noise;
    c.seed = derive_seed(o.seed, 77);
    noisy.push_back(c);
  }
  studies.push_back({"arc.misselection",
                     cluster::make_homogeneous_cluster("Cl", 4, 8),
                     wl(WorkloadClass::kBigData, 7), noisy, false});
  return studies;
}

std::size_t task_count(const workflow::Workload& w) {
  std::size_t n = 0;
  for (const auto& j : w.jobs) n += j.tasks.size();
  return n;
}

/// Per-layer accumulators of one measured pass.
struct Ledger {
  // Single-policy baseline calls.
  double baseline_s = 0.0;
  double order_s = 0.0;       // inside Policy::order (traced runs)
  std::uint64_t passes = 0;   // scheduling passes (tick calls)
  std::uint64_t tasks = 0;    // tasks completed
  // Portfolio calls.
  double portfolio_s = 0.0;
  double select_s = 0.0;      // selecting ticks
  std::uint64_t rounds = 0;
  std::uint64_t switches = 0;
  std::uint64_t whatif_sims = 0;
  std::uint64_t whatif_task_policies = 0;
  std::vector<double> select_ms;  // one sample per selection round
};

/// Policy decorator: forwards everything to the real policy, counts
/// passes, and times what the ledger asks for. Nested what-if simulations
/// see the real policy's clone(), so only top-level calls are measured.
class TimedPolicy final : public sched::Policy {
 public:
  TimedPolicy(sched::Policy& inner, Ledger& ledger, bool time_order,
              const sched::PortfolioScheduler* portfolio = nullptr,
              std::size_t candidates = 0, std::size_t snapshot_cap = 0)
      : inner_(inner),
        ledger_(ledger),
        time_order_(time_order),
        portfolio_(portfolio),
        candidates_(candidates),
        snapshot_cap_(snapshot_cap),
        incumbent_(portfolio ? portfolio->current_policy() : std::string()) {}

  std::string name() const override { return inner_.name(); }
  bool backfilling() const override { return inner_.backfilling(); }
  std::unique_ptr<sched::Policy> clone() const override {
    return inner_.clone();
  }

  void order(std::vector<sched::TaskRef>& queue,
             const sched::SchedState& state) override {
    if (!time_order_) return inner_.order(queue, state);
    const double t0 = wall_now();
    inner_.order(queue, state);
    ledger_.order_s += wall_now() - t0;
  }

  double tick(const sched::SchedState& state,
              const std::vector<sched::TaskRef>& queue) override {
    if (portfolio_ == nullptr) {
      ++ledger_.passes;
      return inner_.tick(state, queue);
    }
    const std::size_t before = rounds();
    const double t0 = wall_now();
    const double overhead = inner_.tick(state, queue);
    const double dt = wall_now() - t0;
    if (rounds() > before) {
      ledger_.select_s += dt;
      ledger_.select_ms.push_back(dt * 1e3);
      ++ledger_.rounds;
      ledger_.whatif_sims += candidates_;
      ledger_.whatif_task_policies +=
          candidates_ * std::min(queue.size(), snapshot_cap_);
      std::string chosen = portfolio_->current_policy();
      if (chosen != incumbent_) ++ledger_.switches;
      incumbent_ = std::move(chosen);
    }
    return overhead;
  }

 private:
  std::size_t rounds() const {
    std::size_t n = 0;
    for (const auto& [name, count] : portfolio_->selections()) n += count;
    return n;
  }

  sched::Policy& inner_;
  Ledger& ledger_;
  bool time_order_;
  const sched::PortfolioScheduler* portfolio_;
  std::size_t candidates_;
  std::size_t snapshot_cap_;
  std::string incumbent_;
};

std::string render(const sched::SchedResult& r) {
  std::string s = "slowdown=" + exact(r.mean_slowdown) +
                  " median=" + exact(r.median_slowdown) +
                  " p95=" + exact(r.p95_slowdown) +
                  " p999=" + exact(r.p999_slowdown) +
                  " wait=" + exact(r.mean_wait) +
                  " makespan=" + exact(r.makespan) +
                  " util=" + exact(r.utilization) +
                  " overhead=" + exact(r.decision_overhead) +
                  " tasks=" + std::to_string(r.tasks_completed) +
                  " jobs=" + std::to_string(r.jobs.size());
  return s;
}

/// One pass over every study. Policies are decorated only on traced passes,
/// so untraced passes time the library alone.
void run_pass(Context& ctx, SpanLog& spans, const std::vector<Study>& studies,
              Ledger& ledger) {
  const bool traced = spans.enabled();
  const std::uint64_t random_seed = derive_seed(ctx.options.seed, 42);
  Timed pass(spans, "table9.pass");
  for (const auto& st : studies) {
    Timed study(spans, st.name);
    const std::size_t tasks = task_count(st.workload);
    const std::size_t jobs = st.workload.jobs.size();
    if (st.baselines) {
      for (auto& p : sched::standard_policies(random_seed)) {
        const std::string op = st.name + "." + p->name();
        try {
          TimedPolicy timed(*p, ledger, traced);
          sched::Policy& policy = traced ? static_cast<sched::Policy&>(timed)
                                         : *p;
          OpTimer call(ctx, spans, op, &ledger.baseline_s);
          const auto r = sched::simulate(st.env, st.workload, policy);
          call.stop();
          ledger.tasks += r.tasks_completed;
          ctx.checks.output(
              op, render(r),
              r.tasks_completed == tasks && r.jobs.size() == jobs);
        } catch (const std::exception& e) {
          ctx.checks.threw(op, e);
        }
      }
    }
    for (std::size_t k = 0; k < st.portfolios.size(); ++k) {
      const std::string op =
          st.name + ".portfolio" +
          (st.portfolios.size() > 1 ? std::to_string(k) : "");
      try {
        const auto& config = st.portfolios[k];
        sched::PortfolioScheduler portfolio(
            sched::standard_policies(random_seed), st.env, config);
        const std::size_t zoo = sched::standard_policies().size();
        const std::size_t candidates =
            config.active_set == 0 || config.active_set >= zoo
                ? zoo
                : config.active_set;
        TimedPolicy timed(portfolio, ledger, false, &portfolio, candidates,
                          config.snapshot_cap);
        sched::Policy& policy =
            traced ? static_cast<sched::Policy&>(timed) : portfolio;
        OpTimer call(ctx, spans, op, &ledger.portfolio_s);
        const auto r = sched::simulate(st.env, st.workload, policy);
        call.stop();
        std::string text = render(r) + " total_overhead=" +
                           exact(portfolio.total_overhead());
        for (const auto& [name, n] : portfolio.selections())
          text += " " + name + "=" + std::to_string(n);
        ctx.checks.output(op, text,
                          r.tasks_completed == tasks && r.jobs.size() == jobs);
      } catch (const std::exception& e) {
        ctx.checks.threw(op, e);
      }
    }
  }
}

}  // namespace

void run_table9(Context& ctx) {
  const Options& o = ctx.options;
  std::vector<Study> studies;
  const double setup_s =
      timed_setup(o.reduced ? 1 : 25, [&] { studies = make_studies(o); });

  // A pass takes ~25 s on a 4-vCPU host: one pass per run at --seconds 15.
  Ledger ledger;
  const PassTimes times =
      run_passes(ctx, passes_for(o, 25.0), [&](SpanLog& spans) {
        Ledger scratch;
        if (spans.enabled()) ledger = Ledger{};
        run_pass(ctx, spans, studies, spans.enabled() ? ledger : scratch);
      });
  if (!o.trace) return set_timings(ctx, setup_s);

  auto& m = ctx.layers;
  const double n_rounds = static_cast<double>(ledger.rounds);
  m.set("sched.baseline_s", ledger.baseline_s, "s");
  m.set("sched.order_s", ledger.order_s, "s");
  m.set("sched.passes", static_cast<double>(ledger.passes), "count");
  m.set("sched.tasks", static_cast<double>(ledger.tasks), "count");
  m.set("portfolio.rounds", n_rounds, "count");
  m.set("portfolio.whatif_sims", static_cast<double>(ledger.whatif_sims),
        "count");
  m.set("portfolio.whatif_task_policies",
        static_cast<double>(ledger.whatif_task_policies), "count");
  m.set("portfolio.select_s", ledger.select_s, "s");
  m.set("portfolio.us_per_task_policy",
        ledger.whatif_task_policies == 0
            ? 0.0
            : ledger.select_s * 1e6 /
                  static_cast<double>(ledger.whatif_task_policies),
        "us");
  m.set("portfolio.switch_frac",
        n_rounds == 0 ? 0.0 : static_cast<double>(ledger.switches) / n_rounds,
        "1");
  m.set("portfolio.run_s", ledger.portfolio_s - ledger.select_s, "s");
  m.set("portfolio.select_p50_ms", quantile(ledger.select_ms, 0.50), "ms");
  m.set("portfolio.select_p95_ms", quantile(ledger.select_ms, 0.95), "ms");
  m.set("bench.trace_overhead", times.trace_overhead(), "1");
}

}  // namespace perfbench
