// atlarge_campaign: the unified front door of the atlarge::exp campaign
// engine. Runs declarative design-space campaigns over the domain
// simulators with trial memoization and checkpoint/resume.
//
//   atlarge_campaign run <spec-file> [--threads=N] [--out=DIR]
//                                    [--max-trials=N] [--trace=FILE]
//   atlarge_campaign domains
//   atlarge_campaign example [domain]
//
// `run` executes the campaign described by the spec file (see
// atlarge/exp/campaign.hpp for the format), persisting per-trial results
// to <out>/results.jsonl as it goes. Re-running the same spec resumes:
// completed trials are served from the store and only missing ones
// execute. Artifacts written to the output directory (default
// campaign-<name>/):
//
//   results.jsonl   one JSON object per completed trial (crash-safe log)
//   aggregate.json  ranked configurations, CIs, per-dimension marginals
//   metrics.json    obs metrics snapshot (exp.trials_* counters etc.)
//
// The flags are in README.md's harness flag table. --max-trials=N stops
// after N new trials with exit code 3; CI re-runs to test the kill/resume
// path deterministically.
//
// Exit codes: 0 = campaign complete; 1 = an artifact could not be
// written; 2 = usage/spec error; 3 = campaign incomplete (trial cap hit —
// resume by re-running).

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "atlarge/exp/adapter.hpp"
#include "atlarge/exp/engine.hpp"
#include "atlarge/obs/observability.hpp"
#include "bench_util.hpp"

namespace {

using namespace atlarge;

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: atlarge_campaign run <spec-file> [--threads=N] [--out=DIR]\n"
      "                                        [--max-trials=N] "
      "[--trace=FILE]\n"
      "       atlarge_campaign domains\n"
      "       atlarge_campaign example [domain]\n");
  return to == stderr ? 2 : 0;
}

int cmd_domains() {
  for (const auto& domain : exp::adapter_domains()) {
    const auto adapter = exp::make_adapter(domain);
    std::printf("%s  (objective: %s)\n", domain.c_str(),
                adapter->objective().c_str());
    for (const auto& param : adapter->params()) {
      std::printf("  %-22s", param.name.c_str());
      for (std::size_t i = 0; i < param.values.size(); ++i)
        std::printf(" %s", param.option_label(i).c_str());
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_example(const std::string& domain) {
  const auto adapter = exp::make_adapter(domain);
  std::printf("# Example %s campaign. Save as <name>.campaign and run:\n",
              domain.c_str());
  std::printf("#   atlarge_campaign run <name>.campaign\n");
  std::printf("campaign %s-example\n", domain.c_str());
  std::printf("domain %s\n", domain.c_str());
  std::printf("mode grid                 # grid | random | explore\n");
  std::printf("repeats 2                 # repetitions per design point\n");
  std::printf("seed 42\n");
  std::printf("scale 0.25                # workload scale in (0, 1]\n");
  std::printf("threads 2\n");
  std::printf("# dim lines restrict a parameter to a subset of its\n");
  std::printf("# options; unlisted parameters keep every option.\n");
  for (const auto& param : adapter->params()) {
    std::printf("dim %s", param.name.c_str());
    for (std::size_t i = 0; i < param.values.size(); ++i)
      std::printf(" %s", param.option_label(i).c_str());
    std::printf("\n");
  }
  return 0;
}

int cmd_run(const char* program, const std::string& spec_path,
            const bench::HarnessOptions& opts) {
  const auto spec = exp::load_campaign_spec(spec_path);
  const auto adapter = exp::make_adapter(spec.domain);

  const std::string out_dir =
      opts.out.empty() ? "campaign-" + spec.name : opts.out;
  std::filesystem::create_directories(out_dir);

  obs::Observability plane;
  exp::ResultStore store(out_dir + "/results.jsonl");
  if (store.discarded_lines() > 0)
    std::printf("-- store repair: kept %zu trials, dropped %zu broken "
                "line(s)\n",
                store.recovered(), store.discarded_lines());
  else if (store.recovered() > 0)
    std::printf("-- resuming: %zu completed trial(s) on record\n",
                store.recovered());

  exp::RunnerConfig config;
  config.obs = &plane;
  // 0: run_campaign falls back to the spec's threads.
  config.threads = opts.threads.value_or(0);
  if (opts.max_trials) config.max_executed = *opts.max_trials;

  const auto outcome = exp::run_campaign(spec, *adapter, store, config);

  std::printf("campaign %s  domain=%s  mode=%s  threads=%zu\n",
              spec.name.c_str(), spec.domain.c_str(),
              exp::to_string(spec.mode).c_str(),
              config.threads == 0 ? spec.threads : config.threads);
  std::printf("trials: %zu requested, %zu executed, %zu memoized, "
              "%zu skipped  (%.0f ms)\n",
              outcome.stats.requested, outcome.stats.executed,
              outcome.stats.memoized, outcome.stats.skipped,
              outcome.stats.wall_ms);
  std::printf("%s", exp::aggregate_table(outcome.aggregate, spec.top_k)
                        .c_str());

  bench::write_text_file(program, out_dir + "/aggregate.json",
                         exp::aggregate_json(outcome.aggregate) + "\n");
  bench::write_text_file(program, out_dir + "/metrics.json",
                         plane.metrics.json() + "\n");
  if (!opts.trace.empty())
    bench::write_text_file(program, opts.trace, plane.tracer.chrome_json());

  std::printf("artifacts: %s/{results.jsonl, aggregate.json, "
              "metrics.json}\n",
              out_dir.c_str());
  if (!outcome.complete) {
    std::printf("campaign INCOMPLETE (trial cap hit); re-run to resume.\n");
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(stderr);
  const std::string command = args.front();
  try {
    if (command == "help" || command == "--help" || command == "-h")
      return usage(stdout);
    if (command == "domains") {
      bench::parse_flags(argc, argv, {}, 2);  // takes no flags
      return cmd_domains();
    }
    if (command == "example") {
      bench::parse_flags(argc, argv, {}, 3);  // takes at most a domain
      return cmd_example(args.size() > 1 ? args[1] : "serverless");
    }
    if (command == "run") {
      if (args.size() < 2 || args[1].rfind("--", 0) == 0)
        bench::usage_error(argv[0], "run: missing spec file");
      const auto opts = bench::parse_flags(
          argc, argv,
          {{0, bench::kThreads | bench::kOut | bench::kMaxTrials |
                   bench::kTrace}},
          3);
      if (opts.max_trials == 0u)
        bench::usage_error(argv[0], "--max-trials must be >= 1");
      return cmd_run(argv[0], args[1], opts);
    }
    std::fprintf(stderr, "atlarge_campaign: unknown command '%s'\n",
                 command.c_str());
    return usage(stderr);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "atlarge_campaign: %s\n", error.what());
    return 2;
  }
}
