// Google-benchmark microbenchmarks of the campaign engine: trial
// throughput at 1 and N runner threads (the fan-out scaling the engine
// exists for) and the memoized re-run path (the checkpoint/resume cost
// floor — a re-run should be dominated by key hashing and store lookups,
// not simulation).
//
// Run with `--json[=path]` to emit the results as JSON (default path
// BENCH_campaign.json); the repo tracks that file so the campaign
// engine's perf trajectory is visible across PRs. Regenerate with:
//   ./build/bench/campaign_bench --json=BENCH_campaign.json

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json_main.hpp"

#include "atlarge/exp/adapter.hpp"
#include "atlarge/exp/engine.hpp"

using namespace atlarge;

namespace {

/// A small serverless grid (8 points x 2 repeats = 16 trials) at minimal
/// workload scale, so the benchmark measures engine overhead + a cheap
/// simulation rather than a heavyweight domain run.
exp::CampaignSpec bench_spec() {
  exp::CampaignSpec spec;
  spec.name = "bench";
  spec.domain = "serverless";
  spec.mode = exp::CampaignMode::kGrid;
  spec.repeats = 2;
  spec.seed = 11;
  spec.scale = 0.05;
  spec.dims = {
      {"keep_alive", {"0", "60", "300", "600"}},
      {"prewarmed", {"0", "2"}},
      {"max_instances", {"32"}},
  };
  return spec;
}

// Fresh campaign end to end (enumerate, hash, simulate, aggregate) with
// range(0) runner threads and a memory-only store per iteration.
// Items/sec counts trials executed.
void BM_CampaignFresh(benchmark::State& state) {
  const auto spec = bench_spec();
  const auto adapter = exp::make_adapter("serverless");
  exp::RunnerConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  std::size_t trials = 0;
  for (auto _ : state) {
    exp::ResultStore store;  // memory-only: no disk in the timing loop
    const auto outcome = exp::run_campaign(spec, *adapter, store, config);
    trials = outcome.tasks.size();
    benchmark::DoNotOptimize(outcome.aggregate.ranked.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(trials) *
                          state.iterations());
}
BENCHMARK(BM_CampaignFresh)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Re-run against a pre-populated store: every trial is a memo hit, so
// this is the resume/checkpoint overhead per trial (descriptor render,
// FNV hash, map lookup, aggregation).
void BM_CampaignMemoizedRerun(benchmark::State& state) {
  const auto spec = bench_spec();
  const auto adapter = exp::make_adapter("serverless");
  exp::RunnerConfig config;
  config.threads = 1;
  exp::ResultStore store;
  exp::run_campaign(spec, *adapter, store, config);  // populate once
  std::size_t trials = 0;
  for (auto _ : state) {
    const auto outcome = exp::run_campaign(spec, *adapter, store, config);
    trials = outcome.tasks.size();
    benchmark::DoNotOptimize(outcome.aggregate.ranked.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(trials) *
                          state.iterations());
}
BENCHMARK(BM_CampaignMemoizedRerun);

// Raw memo-key cost: descriptor render + FNV-1a + seed derivation for one
// trial (the per-trial fixed cost every mode pays).
void BM_TrialKeyDerivation(benchmark::State& state) {
  const auto spec = bench_spec();
  const auto adapter = exp::make_adapter("serverless");
  const exp::BoundSpace space(*adapter, spec);
  const auto point = space.grid_point(3);
  std::uint32_t repeat = 0;
  for (auto _ : state) {
    auto task = exp::make_trial(spec, space, point, repeat++ % 2, 0);
    benchmark::DoNotOptimize(task.key.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrialKeyDerivation);

// JSONL round-trip for one stored trial: render_line is private, so this
// measures the read side (parse_trial_line) on a representative row.
void BM_TrialLineParse(benchmark::State& state) {
  const std::string line =
      "{\"key\":\"0123456789abcdef\",\"domain\":\"serverless\","
      "\"repeat\":1,\"seed\":42,\"params\":{\"keep_alive\":\"300\","
      "\"prewarmed\":\"2\",\"max_instances\":\"32\"},"
      "\"objective\":1.82,\"metrics\":{\"p50_latency\":0.61,"
      "\"p95_latency\":1.82,\"p99_latency\":2.75,\"cold_fraction\":0.25}}";
  exp::TrialRecord record;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp::parse_trial_line(line, record));
    benchmark::DoNotOptimize(record.metrics.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrialLineParse);

}  // namespace

ATLARGE_BENCH_JSON_MAIN("BENCH_campaign.json")
