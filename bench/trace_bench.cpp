// Google-benchmark microbenchmarks of the workload plane (trace::*): the
// .atl columnar writer and chunked reader, the seeded workload generators,
// and the zipfian key sampler. The write/read pair is the hot path of
// trace-driven campaigns — a multi-GB trace replays at reader speed, so
// its throughput trajectory is tracked the same way the kernel's is.
//
// Run with `--json[=path]` to additionally emit the results as JSON
// (default path BENCH_trace.json); the repo tracks that file so the perf
// gate (bench/compare_bench.py) sees regressions. Regenerate with:
//   ./build/bench/trace_bench --json=BENCH_trace.json

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json_main.hpp"

#include "atlarge/stats/rng.hpp"
#include "atlarge/trace/atl.hpp"
#include "atlarge/trace/catalog.hpp"
#include "atlarge/trace/event.hpp"
#include "atlarge/trace/gen.hpp"

using namespace atlarge;

namespace {

std::string bench_path(const char* tag) {
  return std::string("trace_bench_") + tag + ".atl";
}

/// A deterministic event batch shared by the writer/reader benchmarks —
/// generator cost must not pollute the I/O numbers.
const std::vector<trace::Event>& sample_events(std::size_t n) {
  static std::vector<trace::Event> cache;
  if (cache.size() < n) {
    trace::gen::FlashcrowdSpec spec;
    spec.duration = 3'600.0;
    spec.base_rate = 50.0;
    spec.surge_time = 1'800.0;
    spec.surge_rate = 450.0;
    cache = trace::catalog::events(
        trace::catalog::Scenario{
            "bench", "bench", "serverless",
            trace::catalog::Scenario::Shape::kFlashcrowd, spec, {}, 7},
        7, n);
  }
  return cache;
}

// -------------------------------------------------------------- .atl I/O --

void BM_AtlWrite(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& events = sample_events(n);
  const std::string path = bench_path("write");
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    trace::TraceWriter writer(path);
    for (std::size_t i = 0; i < n; ++i) writer.append(events[i]);
    writer.finish();
    bytes = writer.bytes_written();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  std::remove(path.c_str());
}

void BM_AtlRead(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& events = sample_events(n);
  const std::string path = bench_path("read");
  std::uint64_t bytes = 0;
  {
    trace::TraceWriter writer(path);
    for (std::size_t i = 0; i < n; ++i) writer.append(events[i]);
    writer.finish();
    bytes = writer.bytes_written();
  }
  for (auto _ : state) {
    trace::TraceReader reader(path);
    std::int64_t sum = 0;
    while (reader.next_chunk()) {
      const auto& t = reader.int_column(0);
      for (const std::int64_t v : t) sum += v;
    }
    benchmark::DoNotOptimize(sum);
    if (reader.rows_read() != n) state.SkipWithError("row count mismatch");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
  std::remove(path.c_str());
}

void BM_AtlEventStream(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& events = sample_events(n);
  const std::string path = bench_path("stream");
  {
    trace::TraceWriter writer(path);
    for (std::size_t i = 0; i < n; ++i) writer.append(events[i]);
    writer.finish();
  }
  for (auto _ : state) {
    trace::TraceReader reader(path);
    trace::AtlEventStream stream(reader);
    trace::Event e;
    std::size_t rows = 0;
    while (stream.next(e)) ++rows;
    if (rows != n) state.SkipWithError("event count mismatch");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  std::remove(path.c_str());
}

// ------------------------------------------------------------ generators --

void BM_FlashcrowdGenerate(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  const auto* scenario = trace::catalog::find("feed-fanout");
  for (auto _ : state) {
    const auto events = trace::catalog::events(*scenario, 7, cap);
    benchmark::DoNotOptimize(events.data());
    if (events.size() != cap) state.SkipWithError("generator under-ran cap");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cap) *
                          state.iterations());
}

void BM_ZipfSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  trace::gen::ZipfSampler zipf(n, 0.99);
  stats::Rng rng(11);
  std::int64_t sum = 0;
  for (auto _ : state) sum += zipf(rng);
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_AtlWrite)->Arg(1 << 16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AtlRead)->Arg(1 << 16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AtlEventStream)->Arg(1 << 16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FlashcrowdGenerate)->Arg(1 << 14)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ZipfSample)->Arg(1 << 20);

ATLARGE_BENCH_JSON_MAIN("BENCH_trace.json")
