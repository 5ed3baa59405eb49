#pragma once
// Shared plumbing of the repository benchmark: clocks, the span log of
// traced runs, golden/failure accounting, metric output and provenance.
// Every workload drives only the library's public API and times the calls
// into each module from here; no library code is instrumented.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The seed at which each workload's inputs equal the paper harnesses'
/// inputs, and at which outputs are compared against the committed goldens.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Monotonic host time, seconds.
double wall_now();
/// CPU seconds consumed by the whole process (all threads).
double cpu_now();

/// Seed of one input generator: `base` at the default seed, a distinct
/// stream per benchmark seed otherwise.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t base);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);
/// Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty).
double quantile(std::vector<double> v, double q);

/// FNV-1a 64 of `text`, as 16 lowercase hex characters.
std::string digest(const std::string& text);
/// %.17g rendering: doubles round-trip exactly.
std::string exact(double v);

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 15.0;
  bool trace = false;
  /// Threads of every parallel layer (sharded kernels, campaign runner,
  /// graph kernels).
  std::size_t threads = 2;
  /// Small inputs for the self-check; timings are not meaningful.
  bool reduced = false;
  std::string goldens;        // golden file to compare against
  std::string write_goldens;  // when set, record digests here instead
  std::string out_dir = ".bench_out";
  /// Source identity stamped into the provenance record (git sha, or a
  /// hash of the source tree outside a git checkout).
  std::string source = "unknown";
};

/// In-memory span log. Spans are recorded only in traced runs and written
/// out when the run ends; an untraced run pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// the thread has open. Returns the span id (0 when disabled).
  std::size_t begin(const std::string& name);
  void end(std::size_t id);
  /// Records a finished span from any thread with an explicit parent.
  void record(const std::string& name, double start, double end,
              std::size_t parent);
  /// Root id shared by every span of the current workload pass.
  void set_root(std::uint32_t root) { root_ = root; }
  /// Innermost open span of the calling thread (0 = none).
  std::size_t current() const;

  /// Writes one JSON object per span (id, parent, root, thread, name,
  /// start, end, self) to `path`.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::size_t parent = 0;
    std::uint32_t root = 0;
    std::size_t thread = 0;
  };
  bool enabled_;
  std::uint32_t root_ = 0;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// Scoped timer: adds its wall seconds to `*sink` (when given) and records
/// a span in traced runs.
class Timed {
 public:
  Timed(SpanLog& log, const std::string& name, double* sink = nullptr);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  /// Stops the timer early; returns the elapsed seconds.
  double stop();

 private:
  SpanLog& log_;
  double* sink_;
  std::size_t span_ = 0;
  double start_;
  bool running_ = true;
};

/// Failure accounting. Every operation of a workload (a simulate call, an
/// engine call, a replay, a campaign trial batch, a kernel call) reports
/// its output here once: the output text is reduced to a digest and, at
/// the default seed, compared against the committed golden; invariants
/// that hold at every seed are checked at every seed. An operation fails
/// when it threw, broke an invariant, or missed its golden.
class Checks {
 public:
  explicit Checks(const Options& options);

  /// Records one operation's output. `ok` carries the caller's
  /// seed-independent invariant checks.
  void output(const std::string& op, const std::string& text, bool ok = true);
  /// Records an operation that threw.
  void threw(const std::string& op, const std::exception& e);

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  /// Writes recorded digests when --write-goldens was given.
  void finish() const;

 private:
  const Options& options_;
  bool compare_ = false;
  std::map<std::string, std::string> golden_;
  std::map<std::string, std::string> seen_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Ordered name -> (value, unit) list, printed as the result's metrics.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Everything a workload needs: options, spans, checks, and the two metric
/// sets. Workloads fill `e2e` in untraced runs and `layers` in traced ones.
struct Context {
  explicit Context(const Options& o)
      : options(o), spans(o.trace), checks(options) {}
  Options options;
  SpanLog spans;
  Checks checks;
  Metrics e2e;
  Metrics layers;
  /// Host seconds of every pass in run order (the first one starts cold),
  /// kept for the result file.
  std::vector<double> pass_wall;
  /// Host and CPU seconds of each operation, one sample per untraced pass.
  struct Samples {
    std::vector<double> wall, cpu;
  };
  std::map<std::string, Samples> ops;
};

/// Times one operation (one public call) of a pass: a span on traced
/// passes, a host/CPU sample in ctx.ops on untraced ones, and its host
/// seconds added to `*sink` when given.
class OpTimer {
 public:
  OpTimer(Context& ctx, SpanLog& spans, const std::string& op,
          double* sink = nullptr);
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;
  /// Stops the timer early; returns the elapsed host seconds.
  double stop();

 private:
  Context::Samples* samples_;
  double cpu0_;
  Timed timed_;
};

/// Runs `fn` as the workload's set-up `reps` times and returns the median
/// set-up seconds; the last run's state is what the timed phase uses.
template <typename Fn>
double timed_setup(std::size_t reps, Fn&& fn) {
  std::vector<double> times;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = wall_now();
    fn();
    times.push_back(wall_now() - t0);
  }
  return median(times);
}

/// Number of passes that fill `seconds` for a pass of nominal length
/// `nominal_s` (at least one). The count depends only on the arguments, so
/// two builds measured with the same settings do identical work.
std::size_t passes_for(const Options& options, double nominal_s);

/// Host seconds of a run's passes.
struct PassTimes {
  std::vector<double> wall;    // untraced passes
  std::vector<double> traced;  // traced passes (traced runs only)
  /// Median traced pass over median untraced pass, minus one.
  double trace_overhead() const { return median(traced) / median(wall) - 1.0; }
};

/// Runs the workload's passes; `pass(spans)` runs one pass against the
/// given span log. Untraced runs make `count` untraced passes. Traced runs
/// alternate untraced and traced passes, at least one of each, so the
/// tracing overhead compares passes measured side by side; per-layer
/// ledgers come from the traced passes (spans.enabled()).
template <typename Fn>
PassTimes run_passes(Context& ctx, std::size_t count, Fn&& pass) {
  PassTimes t;
  SpanLog off(false);
  const std::size_t n =
      ctx.options.trace ? std::max<std::size_t>(count, 2) : count;
  for (std::size_t i = 0; i < n; ++i) {
    const bool traced = ctx.options.trace && i % 2 == 1;
    if (traced) ctx.spans.set_root(static_cast<std::uint32_t>(i + 1));
    const double w0 = wall_now();
    pass(traced ? ctx.spans : off);
    const double w = wall_now() - w0;
    (traced ? t.traced : t.wall).push_back(w);
    ctx.pass_wall.push_back(w);
  }
  return t;
}

/// Sets the timing end-to-end metrics of an untraced run. A pass's host
/// (CPU) seconds are the sum over its operations of each operation's median
/// across the run's passes: a burst of host interference that slows some
/// passes then moves no operation's median, and the benchmark's own checking
/// between calls is not counted.
void set_timings(Context& ctx, double setup_s);

// Workload entry points; each fills ctx.e2e or ctx.layers.
void run_table9(Context& ctx);
void run_sharded(Context& ctx);
void run_campaign(Context& ctx);
void run_graphalytics(Context& ctx);

}  // namespace perfbench
