// scenario-campaign: the workload plane and the campaign engine, with
// reads beside writes. Set-up writes all five catalog scenarios to .atl
// files. A pass replays each file with replay_file, runs the committed
// scenario_catalog, portfolio_table9 and serverless_faults campaigns into
// fresh persistent stores, then re-opens every store and runs the
// campaigns again so every trial is a memo hit.

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "atlarge/exp/adapter.hpp"
#include "atlarge/exp/aggregate.hpp"
#include "atlarge/exp/campaign.hpp"
#include "atlarge/exp/engine.hpp"
#include "atlarge/exp/store.hpp"
#include "atlarge/trace/atl.hpp"
#include "atlarge/trace/catalog.hpp"
#include "bench.hpp"

using namespace atlarge;

namespace perfbench {
namespace {

const char* const kCampaigns[] = {"scenario_catalog", "portfolio_table9",
                                  "serverless_faults"};

/// Adapter decorator of traced runs: forwards to the real adapter and
/// records one span per trial from the runner's worker threads.
class TimedAdapter final : public exp::SimulatorAdapter {
 public:
  TimedAdapter(const exp::SimulatorAdapter& inner, SpanLog& spans,
               std::size_t parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  std::string domain() const override { return inner_.domain(); }
  std::string objective() const override { return inner_.objective(); }
  std::vector<exp::ParamSpec> params() const override {
    return inner_.params();
  }
  exp::TrialResult run(const std::vector<double>& values, std::uint64_t seed,
                       double scale) const override {
    const double t0 = wall_now();
    exp::TrialResult r = inner_.run(values, seed, scale);
    const double t1 = wall_now();
    spans_.record("exp.trial", t0, t1, parent_);
    std::lock_guard<std::mutex> lock(mu_);
    trial_s_ += t1 - t0;
    first_ = std::min(first_, t0);
    last_ = std::max(last_, t1);
    return r;
  }

  double trial_s() const { return trial_s_; }
  /// Host seconds from the first trial's start to the last trial's end.
  double active_s() const { return last_ > first_ ? last_ - first_ : 0.0; }

 private:
  const exp::SimulatorAdapter& inner_;
  SpanLog& spans_;
  std::size_t parent_;
  mutable std::mutex mu_;  // guards the three accumulators below
  mutable double trial_s_ = 0.0;
  mutable double first_ = std::numeric_limits<double>::infinity();
  mutable double last_ = 0.0;
};

struct Trace {
  const trace::catalog::Scenario* scenario;
  std::string path;
  std::uint64_t events = 0;
};

struct CampaignLedger {
  double s = 0.0, memo_s = 0.0;
  std::size_t trials = 0;
};

}  // namespace

void run_campaign(Context& ctx) {
  const Options& o = ctx.options;
  const std::string dir = o.out_dir + "/campaign-seed" + std::to_string(o.seed);
  std::filesystem::create_directories(dir);
  const std::size_t cap = o.reduced ? 20'000 : 0;

  // Set-up: generate every scenario into its .atl file.
  std::vector<Trace> traces;
  const double setup_s = timed_setup(o.reduced ? 1 : 5, [&] {
    traces.clear();
    for (const auto& sc : trace::catalog::scenarios()) {
      Trace t{&sc, dir + "/" + sc.name + ".atl", 0};
      t.events = trace::catalog::write_trace(
          sc, t.path, derive_seed(o.seed, sc.default_seed), cap);
      traces.push_back(t);
    }
  });

  std::vector<exp::CampaignSpec> specs;
  std::vector<std::unique_ptr<exp::SimulatorAdapter>> adapters;
  for (const char* name : kCampaigns) {
    auto spec = exp::load_campaign_spec(std::string(PERFBENCH_ROOT) +
                                        "/../bench/campaigns/" + name +
                                        ".campaign");
    spec.seed = derive_seed(o.seed, spec.seed);
    if (o.reduced) {
      spec.repeats = 1;
      spec.scale = std::min(spec.scale, 0.1);
    }
    adapters.push_back(exp::make_adapter(spec.domain));
    specs.push_back(std::move(spec));
  }

  // Ledgers of the last traced pass.
  std::map<std::string, double> replay_s;
  std::map<std::string, std::uint64_t> replay_events;
  std::map<std::string, CampaignLedger> camps;
  double trial_s = 0.0, serial_s = 0.0;
  const PassTimes times =
      run_passes(ctx, passes_for(o, 2.5), [&](SpanLog& spans) {
        const bool keep = spans.enabled();
        if (keep) {
          replay_s.clear();
          replay_events.clear();
          camps.clear();
          trial_s = serial_s = 0.0;
        }
        Timed pass(spans, "campaign.pass");
        for (const auto& t : traces) {
          const std::string op = "replay." + t.scenario->name;
          try {
            OpTimer call(ctx, spans, op);
            const auto summary =
                trace::catalog::replay_file(*t.scenario, t.path);
            const double dt = call.stop();
            ctx.checks.output(op, summary.text(), summary.events == t.events);
            if (!keep) continue;
            replay_s[t.scenario->name] = dt;
            replay_events[t.scenario->name] = summary.events;
          } catch (const std::exception& e) {
            ctx.checks.threw(op, e);
          }
        }
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const std::string name = kCampaigns[i];
          const std::string store_path = dir + "/" + name + ".jsonl";
          std::filesystem::remove(store_path);
          exp::RunnerConfig config;
          config.threads = o.threads;
          std::string fresh_json;
          for (const bool memo : {false, true}) {
            const std::string op = "exp." + name + (memo ? ".memo" : "");
            try {
              exp::ResultStore store(store_path);
              OpTimer call(ctx, spans, op);
              TimedAdapter timed(*adapters[i], spans, spans.current());
              const exp::SimulatorAdapter& adapter =
                  keep ? static_cast<const exp::SimulatorAdapter&>(timed)
                       : *adapters[i];
              const auto outcome =
                  exp::run_campaign(specs[i], adapter, store, config);
              const double dt = call.stop();
              const std::string json = exp::aggregate_json(outcome.aggregate);
              bool ok = outcome.complete && outcome.stats.skipped == 0;
              if (memo) {
                ok = ok && outcome.stats.executed == 0 && json == fresh_json;
              } else {
                fresh_json = json;
                ok = ok && outcome.stats.executed == outcome.tasks.size();
              }
              ctx.checks.output(op, json, ok);
              if (!keep) continue;
              auto& c = camps[name];
              if (memo) {
                c.memo_s = dt;
              } else {
                c.s = dt;
                c.trials = outcome.stats.executed;
                trial_s += timed.trial_s();
                serial_s += dt - timed.active_s();
              }
            } catch (const std::exception& e) {
              ctx.checks.threw(op, e);
            }
          }
        }
      });
  if (!o.trace) return set_timings(ctx, setup_s);

  auto& m = ctx.layers;
  m.set("bench.trace_overhead", times.trace_overhead(), "1");

  // Decode-only pass: CRC and varint/delta decoding without an engine.
  double decode_s = 0.0;
  std::uint64_t bytes = 0, chunks = 0;
  for (const auto& t : traces) {
    bytes += std::filesystem::file_size(t.path);
    Timed call(ctx.spans, "trace.decode." + t.scenario->name, &decode_s);
    trace::TraceReader reader(t.path);
    while (reader.next_chunk()) {
    }
    chunks += reader.chunks_read();
  }
  m.set("trace.write_s", setup_s, "s");  // set-up is the .atl writing
  m.set("trace.bytes", static_cast<double>(bytes), "count");
  m.set("trace.chunks", static_cast<double>(chunks), "count");
  m.set("trace.decode_s", decode_s, "s");
  m.set("trace.decode_mb_per_s",
        decode_s > 0 ? static_cast<double>(bytes) / 1e6 / decode_s : 0.0,
        "MB/s");

  double all_replay_s = 0.0;
  std::uint64_t all_events = 0;
  for (const auto& t : traces) {
    const std::string& s = t.scenario->name;
    m.set("replay." + s + ".s", replay_s[s], "s");
    m.set("replay." + s + ".events", static_cast<double>(replay_events[s]),
          "count");
    all_replay_s += replay_s[s];
    all_events += replay_events[s];
    if (t.scenario->engine == "sched")
      m.set("sched.replay_s", replay_s[s], "s");
  }
  m.set("replay.events_per_s",
        all_replay_s > 0 ? static_cast<double>(all_events) / all_replay_s : 0.0,
        "1/s");

  double fresh_s = 0.0;
  std::size_t trials = 0;
  for (const char* name : kCampaigns) {
    const auto& c = camps[name];
    const std::string p = std::string("exp.") + name;
    m.set(p + ".s", c.s, "s");
    m.set(p + ".memo_s", c.memo_s, "s");
    m.set(p + ".trials", static_cast<double>(c.trials), "count");
    fresh_s += c.s;
    trials += c.trials;
  }
  m.set("exp.trial_s", trial_s, "s");
  m.set("exp.busy_frac",
        fresh_s > 0
            ? trial_s / (fresh_s * static_cast<double>(o.threads))
            : 0.0,
        "1");
  m.set("exp.serial_s", serial_s, "s");
  m.set("exp.trials_per_s",
        fresh_s > 0 ? static_cast<double>(trials) / fresh_s : 0.0, "1/s");
}

}  // namespace perfbench
