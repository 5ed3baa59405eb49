// Section 6.7: the autoscaling experiments.
//  [126]/[128] N=5 experiments x 7 autoscalers, ten elasticity metrics;
//  [127] extended analysis: performance metrics, cost models, deadline
//        SLAs, and the grading method;
// two ranking methods aggregate the results into "which policy is best?".

#include <cstdio>

#include "atlarge/autoscale/autoscalers.hpp"
#include "atlarge/autoscale/elastic_sim.hpp"
#include "atlarge/autoscale/ranking.hpp"
#include "atlarge/cluster/cost.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/workflow/generators.hpp"
#include "bench_util.hpp"
#include "workload_mode.hpp"

using namespace atlarge;

namespace {

workflow::Workload experiment_workload(std::size_t experiment) {
  workflow::WorkloadSpec spec;
  // Five experiments: vary workload class and intensity, as the study
  // varied workload and environment configurations.
  switch (experiment) {
    case 0: spec.cls = workflow::WorkloadClass::kIndustrial; break;
    case 1: spec.cls = workflow::WorkloadClass::kScientific; break;
    case 2: spec.cls = workflow::WorkloadClass::kBigData; break;
    case 3: spec.cls = workflow::WorkloadClass::kGaming; break;
    default: spec.cls = workflow::WorkloadClass::kSynthetic; break;
  }
  spec.jobs = 40;
  spec.horizon = 4'000.0;
  spec.seed = 1'000 + experiment;
  return workflow::generate(spec);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_flags(
      argc, argv, {bench::kReplay, {bench::kFaults, bench::kFaultSeed}});
  if (bench::workload_mode(argv[0], opts, "gaming-diurnal")) return 0;
  bench::header("Section 6.7: autoscaler evaluation (N=5 experiments)");

  const std::size_t kExperiments = 5;
  autoscale::ElasticConfig config;
  config.cores_per_machine = 4;
  config.max_machines = 32;
  config.provisioning_delay = 60.0;
  config.interval = 30.0;
  config.sla_factor = 4.0;

  // Chaos mode (--faults=<rate> [--fault-seed=<n>]): every experiment runs
  // under the same seeded machine-crash plan, so the rankings measure how
  // well each policy re-provisions around capacity loss. Without the flag
  // the plan pointer stays null and output is byte-identical to before.
  fault::FaultPlan plan;
  const double fault_rate = opts.faults.value_or(0.0);
  if (fault_rate > 0.0) {
    fault::FaultSpec fspec;
    fspec.rate = fault_rate;
    fspec.horizon = 4'000.0;
    fspec.seed = opts.fault_seed.value_or(1);
    fspec.targets = static_cast<std::uint32_t>(config.max_machines);
    fspec.mean_duration = 180.0;
    fspec.kinds = {fault::FaultKind::kMachineCrash};
    plan = fault::FaultPlan::generate(fspec);
    config.faults = &plan;
    bench::note("fault plan: " + std::to_string(plan.size()) +
                " machine crashes (rate " + std::to_string(fault_rate) +
                "/1000s, seed " + std::to_string(fspec.seed) + ")");
  }

  // Aggregate per-autoscaler metric vectors across experiments (all
  // lower-is-better).
  std::vector<autoscale::SystemScores> systems;
  const auto zoo_names = [] {
    std::vector<std::string> names;
    for (const auto& a : autoscale::standard_autoscalers())
      names.push_back(a->name());
    return names;
  }();
  systems.reserve(zoo_names.size());
  for (const auto& name : zoo_names)
    systems.push_back(autoscale::SystemScores{name, {}});

  const auto cost_models = cluster::standard_cost_models();

  for (std::size_t e = 0; e < kExperiments; ++e) {
    const auto wl = experiment_workload(e);
    std::printf("\nExperiment %zu (%s, %zu jobs): per-autoscaler results\n",
                e + 1, wl.name.c_str(), wl.jobs.size());
    std::printf("%-9s %9s %8s %8s %7s %7s %7s %9s %8s %9s\n", "scaler",
                "slowdown", "acc_O", "acc_U", "ts_O", "ts_U", "instab",
                "avg_sup", "SLAviol", "cost($)");
    auto zoo = autoscale::standard_autoscalers();
    for (std::size_t i = 0; i < zoo.size(); ++i) {
      const auto result = autoscale::run_elastic(wl, *zoo[i], config);
      const auto& m = result.metrics;
      const double cost =
          cost_models[1].total_cost(result.makespan, result.rentals);
      std::printf("%-9s %9.2f %8.2f %8.2f %7.2f %7.2f %7.2f %9.1f %7.1f%% "
                  "%9.0f\n",
                  zoo[i]->name().c_str(), result.mean_slowdown,
                  m.accuracy_over, m.accuracy_under, m.timeshare_over,
                  m.timeshare_under, m.instability, m.avg_supply,
                  100.0 * result.deadline_violation_rate(), cost);
      // Metric vector for the rankings: elasticity + performance + cost.
      auto& vec = systems[i].metrics;
      vec.push_back(m.accuracy_over);
      vec.push_back(m.accuracy_under);
      vec.push_back(m.norm_accuracy_over);
      vec.push_back(m.norm_accuracy_under);
      vec.push_back(m.timeshare_over);
      vec.push_back(m.timeshare_under);
      vec.push_back(m.instability);
      vec.push_back(m.jitter_per_hour);
      vec.push_back(result.mean_slowdown);
      vec.push_back(result.deadline_violation_rate());
      vec.push_back(cost);
    }
  }

  bench::header("Rankings across all experiments");
  std::printf("\nMethod 1 - pairwise head-to-head (fraction of pairs won):\n");
  for (const auto& r : autoscale::rank_pairwise(systems))
    std::printf("  %-9s %.3f\n", r.name.c_str(), r.score);
  std::printf("\nMethod 2 - mean fractional distance from best (lower "
              "wins):\n");
  for (const auto& r : autoscale::rank_fractional(systems))
    std::printf("  %-9s %.3f\n", r.name.c_str(), r.score);
  std::printf("\nGrading (0-10, combining both methods):\n");
  for (const auto& r : autoscale::grade(systems))
    std::printf("  %-9s %.1f\n", r.name.c_str(), r.score);

  std::printf(
      "\nPaper claims reproduced: no autoscaler dominates every metric;\n"
      "workflow-aware autoscalers (Plan/Token) track demand spikes the\n"
      "general ones must predict; rankings depend on the aggregation\n"
      "method — hence the need for an explicit grading design.\n");
  return 0;
}
