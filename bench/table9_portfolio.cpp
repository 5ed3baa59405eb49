// Table 9 / Section 6.6: portfolio scheduling across workloads and
// environments. Each row re-runs the corresponding study's question:
// is the portfolio "useful" — within a small margin of the best single
// policy, while no single policy is consistently best? Also reproduces
// the online-cost arc: [114] simulate-all is too slow online, [115] the
// active set fixes it, [120] noisy utilities cause mis-selection.

#include <cstdio>
#include <limits>
#include <map>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/workflow/generators.hpp"
#include "bench_util.hpp"
#include "workload_mode.hpp"

using namespace atlarge;

namespace {

struct StudyRow {
  const char* study;
  workflow::WorkloadClass cls;
  cluster::Environment env;
};

workflow::Workload make_workload(workflow::WorkloadClass cls,
                                 std::uint64_t seed) {
  workflow::WorkloadSpec spec;
  spec.cls = cls;
  spec.jobs = 60;
  spec.horizon = 4'000.0;
  spec.seed = seed;
  return workflow::generate(spec);
}

void table9() {
  bench::header("Table 9: portfolio scheduling across W x Env");
  std::vector<StudyRow> rows;
  rows.push_back({"[114]('13) Syn/CL", workflow::WorkloadClass::kSynthetic,
                  cluster::make_homogeneous_cluster("CL", 4, 8)});
  rows.push_back({"[115]('13) Sci/G+CD", workflow::WorkloadClass::kScientific,
                  cluster::make_grid("G", 3, 2, 8)});
  rows.push_back({"[116]('13) Sci+Gam/CL", workflow::WorkloadClass::kGaming,
                  cluster::make_homogeneous_cluster("CL", 4, 8)});
  rows.push_back({"[117]('13) CE/GDC", workflow::WorkloadClass::kComputerEng,
                  cluster::make_geo_distributed("GDC", 3, 2, 8, 0.05)});
  rows.push_back({"[118]('15) BC/MCD",
                  workflow::WorkloadClass::kBusinessCritical,
                  cluster::make_multi_cluster("MCD", 3, 2, 8)});
  rows.push_back({"[119]('17) Ind/CD", workflow::WorkloadClass::kIndustrial,
                  cluster::make_cloud("CD", 8, 8, 60.0)});
  rows.push_back({"[120]('18) BD/Cl", workflow::WorkloadClass::kBigData,
                  cluster::make_homogeneous_cluster("Cl", 4, 8)});

  std::printf("\n%-24s %12s %12s %12s %10s\n", "study (W/Env)",
              "best single", "worst single", "portfolio", "useful?");
  std::map<std::string, int> single_wins;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto wl = make_workload(rows[i].cls, 100 + i);
    double best = std::numeric_limits<double>::infinity();
    double worst = 0.0;
    std::string best_name;
    for (auto& p : sched::standard_policies()) {
      const auto r = sched::simulate(rows[i].env, wl, *p);
      if (r.mean_slowdown < best) {
        best = r.mean_slowdown;
        best_name = p->name();
      }
      worst = std::max(worst, r.mean_slowdown);
    }
    ++single_wins[best_name];
    sched::PortfolioScheduler portfolio(sched::standard_policies(),
                                        rows[i].env, {});
    const auto r = sched::simulate(rows[i].env, wl, portfolio);
    const bool useful = r.mean_slowdown <= best * 1.2 + 0.2;
    std::printf("%-24s %12.2f %12.2f %12.2f %10s\n", rows[i].study, best,
                worst, r.mean_slowdown, useful ? "useful" : "NO");
  }
  std::printf("\nbest single policy differs per row:");
  for (const auto& [name, wins] : single_wins)
    std::printf(" %s=%d", name.c_str(), wins);
  std::printf("\n=> no single policy is consistently best (the finding that "
              "motivated portfolio scheduling); the portfolio tracks the "
              "per-row best.\n");
}

void online_cost_arc() {
  bench::header("[114]->[115] Online simulation cost and the active set");
  const auto env = cluster::make_homogeneous_cluster("CL", 4, 8);
  const auto wl = make_workload(workflow::WorkloadClass::kScientific, 42);

  std::printf("%-30s %12s %14s %12s\n", "configuration", "makespan",
              "overhead (s)", "slowdown");
  struct Case {
    const char* label;
    sched::PortfolioConfig config;
  };
  sched::PortfolioConfig free_sim;
  sched::PortfolioConfig costly;
  costly.cost_per_task_policy = 0.2;
  sched::PortfolioConfig active2 = costly;
  active2.active_set = 2;
  sched::PortfolioConfig active4 = costly;
  active4.active_set = 4;
  for (const auto& c :
       {Case{"instant simulation", free_sim},
        Case{"charged, full portfolio (7)", costly},
        Case{"charged, active set K=4", active4},
        Case{"charged, active set K=2", active2}}) {
    sched::PortfolioScheduler portfolio(sched::standard_policies(), env,
                                        c.config);
    const auto r = sched::simulate(env, wl, portfolio);
    std::printf("%-30s %12.0f %14.0f %12.2f\n", c.label, r.makespan,
                portfolio.total_overhead(), r.mean_slowdown);
  }
  std::printf("=> charging for what-if simulation slows the scheduler; the "
              "active set recovers most of the loss.\n");
}

void misselection() {
  bench::header("[120] Mis-selection under unpredictable performance");
  const auto env = cluster::make_homogeneous_cluster("Cl", 4, 8);
  const auto wl = make_workload(workflow::WorkloadClass::kBigData, 7);
  std::printf("%-18s %12s\n", "utility noise", "slowdown");
  for (double noise : {0.0, 1.0, 3.0}) {
    sched::PortfolioConfig config;
    config.utility_noise = noise;
    config.seed = 77;
    sched::PortfolioScheduler portfolio(sched::standard_policies(), env,
                                        config);
    const auto r = sched::simulate(env, wl, portfolio);
    std::printf("%-18.1f %12.2f\n", noise, r.mean_slowdown);
  }
  std::printf("=> when policy performance is hard to predict, selection "
              "quality degrades (open problem in the paper).\n");
}

/// Re-runs one representative portfolio experiment with the observability
/// plane attached and exports whatever was asked for (bench::export_plane);
/// the continuous sim-time series is sampled every 10 s.
void instrumented_run(const bench::HarnessOptions& opts) {
  bench::header("Instrumented run (--trace/--metrics-out/--timeseries-out)");
  const auto env = cluster::make_homogeneous_cluster("CL", 4, 8);
  const auto wl = make_workload(workflow::WorkloadClass::kScientific, 42);

  obs::Observability plane;
  obs::TimeSeries series(10.0);
  series.track_counter("events_fired", plane.metrics.counter("sim.events_fired"));
  series.track_counter("tasks_placed", plane.metrics.counter("sched.tasks_placed"));
  series.track_gauge("eligible_queue", plane.metrics.gauge("sched.eligible_queue"));
  series.track_gauge("queue_depth", plane.metrics.gauge("sim.queue_depth"));
  plane.attach_timeseries(&series);

  sched::PortfolioConfig config;
  config.obs = &plane;
  sched::PortfolioScheduler portfolio(sched::standard_policies(), env,
                                      config);
  sched::SimOptions options;
  options.obs = &plane;
  const auto r = sched::simulate(env, wl, portfolio, options);
  std::printf("slowdown %.2f over %zu jobs\n", r.mean_slowdown,
              r.jobs.size());

  bench::export_plane(opts, plane, &series);
  bench::note("metrics: " + plane.metrics.json());
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_flags(
      argc, argv, {bench::kReplay, {0, bench::kTrace | bench::kMetricsOut |
                                           bench::kTimeseriesOut}});
  if (bench::workload_mode(argv[0], opts, "ecommerce-spike")) return 0;
  table9();
  online_cost_arc();
  misselection();
  if (opts.wants_export()) instrumented_run(opts);
  return 0;
}
