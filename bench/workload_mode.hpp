#pragma once
// The two output paths the harnesses share: the `--workload` replay
// driver and the export of an instrumented run's telemetry plane, plus
// the catalog lookup behind `--workload` and table6's `--sharded-replay`.
//
// Every simulation harness (table5/table7/table9/sec67/table_eco) doubles
// as a trace-replay driver: pass `--workload=<scenario>` to run a named
// trace::catalog scenario through its engine, or `--workload=<file.atl>`
// to stream a binary trace from disk. The driver prints the deterministic
// ReplaySummary (one key=value per line) and exits, skipping the paper
// tables entirely. Its flags are bench::kReplay's (README.md's harness
// flag table) and no others; --workload-out writes the generated trace
// and replays it back from the file, the write->read round trip CI smokes.
//
// A .atl file carries events but not an engine binding, so file replays
// use the harness's default scenario for engine and config; named
// scenarios may belong to any engine (the catalog knows which).

#include <cstdio>
#include <exception>
#include <string>

#include "atlarge/obs/observability.hpp"
#include "atlarge/trace/catalog.hpp"
#include "bench_util.hpp"

namespace atlarge::bench {

/// The catalog scenario named `name`. An unknown name is a usage error
/// (status 2) whose line lists the catalog.
inline const trace::catalog::Scenario& find_scenario(const char* program,
                                                     const std::string& name) {
  const trace::catalog::Scenario* scenario =
      trace::catalog::find(name.c_str());
  if (scenario == nullptr) {
    std::string names;
    for (const auto& s : trace::catalog::scenarios()) names += " " + s.name;
    usage_error(program, "unknown scenario '" + name + "'; catalog:" + names);
  }
  return *scenario;
}

/// Runs replay mode if `--workload` was passed. Returns true when it ran
/// (the caller should exit 0) and false when the harness should print its
/// normal tables. An unknown scenario is a usage error (status 2), and a
/// trace that cannot be read or written ends `program` with status 1, each
/// with one stderr line.
inline bool workload_mode(const char* program, const HarnessOptions& opts,
                          const char* default_scenario) {
  const std::string& workload = opts.workload;
  if (workload.empty()) return false;

  const bool is_file = workload.size() > 4 &&
                       workload.compare(workload.size() - 4, 4, ".atl") == 0;
  const trace::catalog::Scenario& scenario =
      find_scenario(program, is_file ? default_scenario : workload);

  obs::Registry registry;
  trace::catalog::ReplayOptions options;
  options.max_events = static_cast<std::size_t>(opts.max_events.value_or(0));
  options.obs = &registry;
  const std::uint64_t seed = opts.seed.value_or(scenario.default_seed);

  trace::catalog::ReplaySummary summary;
  const std::string& out = opts.workload_out;
  try {
    if (is_file) {
      summary = trace::catalog::replay_file(scenario, workload, options);
    } else if (!out.empty()) {
      const auto written = trace::catalog::write_trace(scenario, out, seed,
                                                       options.max_events);
      std::fprintf(stderr, "wrote %llu events to %s\n",
                   static_cast<unsigned long long>(written), out.c_str());
      summary = trace::catalog::replay_file(scenario, out, options);
    } else {
      summary = trace::catalog::replay_generated(scenario, seed, options);
    }
  } catch (const std::exception& error) {
    fail(program, error.what(), 1);
  }

  std::fputs(summary.text().c_str(), stdout);

  if (!opts.metrics_out.empty())
    write_text_file(program, opts.metrics_out, registry.json());
  return true;
}

/// Writes what `opts` asks of an instrumented run, one note per file: the
/// span timeline as a Chrome trace (--trace, load in Perfetto or
/// about://tracing), the registry as JSON (--metrics-out), `series` as CSV
/// for a .csv path and JSON otherwise (--timeseries-out), and `flight`'s
/// causal snapshot as a Chrome trace (--flight-out). A harness that
/// honours --timeseries-out or --flight-out passes the series or recorder.
/// A file that cannot be written ends `program` with status 1.
inline void export_plane(const char* program, const HarnessOptions& opts,
                         const obs::Observability& plane,
                         const obs::TimeSeries* series = nullptr,
                         const obs::FlightRecorder* flight = nullptr) {
  if (!opts.trace.empty()) {
    write_text_file(program, opts.trace, plane.tracer.chrome_json());
    note("trace: " + std::to_string(plane.tracer.size()) + " records -> " +
         opts.trace);
  }
  if (!opts.metrics_out.empty()) {
    write_text_file(program, opts.metrics_out, plane.metrics.json());
    note("metrics -> " + opts.metrics_out);
  }
  const std::string& path = opts.timeseries_out;
  if (!path.empty()) {
    write_text_file(program, path,
                    path.ends_with(".csv") ? series->csv() : series->json());
    note("timeseries: " + std::to_string(series->size()) + " rows -> " +
         path);
  }
  if (!opts.flight_out.empty()) {
    write_text_file(program, opts.flight_out, flight->chrome_json());
    note("flight: " + std::to_string(flight->recorded()) + " records over " +
         std::to_string(flight->entities()) + " entities -> " +
         opts.flight_out);
  }
}

}  // namespace atlarge::bench
