// Repository benchmark binary: runs one named workload in this process,
// checks every operation's output, and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--reduced] [--goldens <file>]
//             [--write-goldens <file>] [--out-dir <dir>] [--source <id>]
//
// perfbench/run.py builds this binary and is the command to invoke.

#include <sys/resource.h>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

using namespace perfbench;

namespace {

bool optimized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
  return false;
#endif
#endif
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return false;
#else
  return true;
#endif
}

std::string provenance(const Options& o) {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d, \"threads\": %zu, \"reduced\": %d, "
                "\"source\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"nproc\": %u, "
                "\"loadavg\": [%.2f, %.2f, %.2f]}",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                exact(o.seconds).c_str(), o.trace ? 1 : 0, o.threads,
                o.reduced ? 1 : 0, o.source.c_str(), PERFBENCH_BUILD_TYPE,
                __VERSION__, std::thread::hardware_concurrency(), load[0],
                load[1], load[2]);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<table9-portfolio|sharded-worlds|scenario-campaign|"
               "graphalytics> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--threads") o.threads = std::stoul(value());
    else if (a == "--reduced") o.reduced = true;
    else if (a == "--goldens") o.goldens = value();
    else if (a == "--write-goldens") o.write_goldens = value();
    else if (a == "--out-dir") o.out_dir = value();
    else if (a == "--source") o.source = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (o.seconds <= 0.0 || o.threads == 0) usage("bad --seconds or --threads");

  void (*run)(Context&) = nullptr;
  if (o.workload == "table9-portfolio") run = run_table9;
  else if (o.workload == "sharded-worlds") run = run_sharded;
  else if (o.workload == "scenario-campaign") run = run_campaign;
  else if (o.workload == "graphalytics") run = run_graphalytics;
  else usage("unknown workload");

  // Timings from unoptimised or instrumented code describe a build no user
  // runs; only the reduced self-check pass may use one.
  if (!optimized_build() && !o.reduced) {
    std::fprintf(stderr,
                 "perfbench: refusing a timed run from a %s build without "
                 "optimisation or with sanitizers\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  if (o.goldens.empty())
    o.goldens = std::string(PERFBENCH_ROOT) + "/goldens/" + o.workload +
                (o.reduced ? ".reduced" : "") + ".txt";
  std::filesystem::create_directories(o.out_dir);
  const std::string stamp = provenance(o);
  std::fprintf(stderr, "provenance %s\n", stamp.c_str());

  Context ctx(o);
  try {
    run(ctx);
    ctx.checks.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  Metrics& out = o.trace ? ctx.layers : ctx.e2e;
  if (!o.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  }
  const std::string tag = o.out_dir + "/" + o.workload + "-seed" +
                          std::to_string(o.seed) + (o.trace ? "-trace" : "");
  if (o.trace) ctx.spans.write(tag + "-spans.jsonl");

  char head[160];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                ctx.checks.failed() == 0 ? "true" : "false",
                ctx.checks.attempted(), ctx.checks.failed());
  const std::string result =
      std::string(head) + "\"metrics\": " + out.json() + "}";
  std::string passes;
  for (double w : ctx.pass_wall)
    passes += (passes.empty() ? "" : ", ") + exact(w);
  std::ofstream(tag + "-result.json")
      << "{\"provenance\": " << stamp << ", \"pass_wall_s\": [" << passes
      << "], \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  return 0;
}
