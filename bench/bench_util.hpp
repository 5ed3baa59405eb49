#pragma once
// Shared front end of the experiment harnesses. Each bench binary
// regenerates one table or figure of the paper as aligned text, so
// EXPERIMENTS.md can quote the output directly. Its main() first reads
// argv with parse_flags() (README.md, "Harness flags").

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>

#include "atlarge/sim/thread_pool.hpp"

namespace atlarge::bench {

inline void header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline void note(const std::string& text) {
  std::printf("-- %s\n", text.c_str());
}

/// Writes `text` to `path`, exiting with a message on I/O failure.
inline void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr || std::fwrite(text.data(), 1, text.size(), f) !=
                          text.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Every flag a harness can take. An empty string or an unset number
/// means the flag was absent, and the harness applies its own default.
struct HarnessOptions {
  std::string workload;        // --workload=<scenario|file.atl>
  std::string workload_out;    // --workload-out=<file.atl>
  std::string metrics_out;     // --metrics-out=<file.json>
  std::string trace;           // --trace=<file.json>
  std::string timeseries_out;  // --timeseries-out=<file.json|file.csv>
  std::string flight_out;      // --flight-out=<file.json>
  std::string sharded_replay;  // --sharded-replay=<scenario>
  std::string out;             // --out=<dir>
  std::optional<std::uint64_t> max_events;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> shards;
  std::optional<std::uint64_t> threads;  // at most ThreadPool::kMaxThreads
  std::optional<std::uint64_t> fault_seed;
  std::optional<std::uint64_t> max_trials;
  std::optional<double> faults;
  bool sharded = false;  // --sharded, a switch

  /// True when an instrumented run has a file to export (export_plane()).
  bool wants_export() const {
    return !trace.empty() || !metrics_out.empty() ||
           !timeseries_out.empty() || !flight_out.empty();
  }
};

/// One bit per flag.
enum Flag : std::uint32_t {
  kWorkload = 1u << 0,
  kWorkloadOut = 1u << 1,
  kMetricsOut = 1u << 2,
  kTrace = 1u << 3,
  kTimeseriesOut = 1u << 4,
  kFlightOut = 1u << 5,
  kShardedReplay = 1u << 6,
  kOut = 1u << 7,
  kMaxEvents = 1u << 8,
  kSeed = 1u << 9,
  kShards = 1u << 10,
  kThreads = 1u << 11,
  kFaultSeed = 1u << 12,
  kMaxTrials = 1u << 13,
  kFaults = 1u << 14,
  kSharded = 1u << 15,
};

/// The flags a harness honours in one mode of its run. A run is in the
/// mode whose trigger flag it passes, else in the plain run (trigger 0).
struct Mode {
  std::uint32_t trigger;  // the flag that selects the mode; 0: plain run
  std::uint32_t flags;    // the other flags the mode honours
};

/// The mode of the shared replay driver, workload_mode().
constexpr Mode kReplay{kWorkload,
                       kWorkloadOut | kMaxEvents | kSeed | kMetricsOut};

/// Exits with `status` after one stderr line, "<program>: <message>".
[[noreturn]] inline void fail(const char* program, const std::string& message,
                              int status) {
  const char* slash = std::strrchr(program, '/');
  std::fprintf(stderr, "%s: %s\n", slash ? slash + 1 : program,
               message.c_str());
  std::exit(status);
}

/// A bad command line: fail() with status 2.
[[noreturn]] inline void usage_error(const char* program,
                                     const std::string& message) {
  fail(program, message, 2);
}

/// Reads argv[first..argc) as `--name=<v>`, `--name <v>` or a bare switch.
/// Ends the harness through usage_error() on an argument that is no flag
/// of `modes`, a flag the run's mode does not honour, a value given to a
/// switch, a missing or empty value (a value may not start with "--"), a
/// number that is not plain decimal or out of range, or a --threads above
/// sim::ThreadPool::kMaxThreads.
inline HarnessOptions parse_flags(int argc, char** argv,
                                  std::initializer_list<Mode> modes,
                                  int first = 1) {
  using H = HarnessOptions;
  // One row per flag. Exactly one target is set, and its type decides how
  // the value parses; a switch takes no value.
  struct FlagSpec {
    Flag bit;
    const char* name;
    std::string H::*text = nullptr;
    std::optional<std::uint64_t> H::*count = nullptr;
    std::optional<double> H::*real = nullptr;
    bool H::*on = nullptr;
  };
  static constexpr FlagSpec kTable[] = {
      {.bit = kWorkload, .name = "--workload", .text = &H::workload},
      {.bit = kWorkloadOut, .name = "--workload-out", .text = &H::workload_out},
      {.bit = kMetricsOut, .name = "--metrics-out", .text = &H::metrics_out},
      {.bit = kTrace, .name = "--trace", .text = &H::trace},
      {.bit = kTimeseriesOut, .name = "--timeseries-out",
       .text = &H::timeseries_out},
      {.bit = kFlightOut, .name = "--flight-out", .text = &H::flight_out},
      {.bit = kShardedReplay, .name = "--sharded-replay",
       .text = &H::sharded_replay},
      {.bit = kOut, .name = "--out", .text = &H::out},
      {.bit = kMaxEvents, .name = "--max-events", .count = &H::max_events},
      {.bit = kSeed, .name = "--seed", .count = &H::seed},
      {.bit = kShards, .name = "--shards", .count = &H::shards},
      {.bit = kThreads, .name = "--threads", .count = &H::threads},
      {.bit = kFaultSeed, .name = "--fault-seed", .count = &H::fault_seed},
      {.bit = kMaxTrials, .name = "--max-trials", .count = &H::max_trials},
      {.bit = kFaults, .name = "--faults", .real = &H::faults},
      {.bit = kSharded, .name = "--sharded", .on = &H::sharded},
  };
  // " --a --b" for the flags in `mask`.
  auto names = [](std::uint32_t mask) {
    std::string out;
    for (const FlagSpec& f : kTable)
      if ((mask & f.bit) != 0) out += std::string(" ") + f.name;
    return out;
  };
  std::uint32_t honoured = 0;
  for (const Mode& m : modes) honoured |= m.trigger | m.flags;
  HarnessOptions opts;
  std::uint32_t given = 0;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const FlagSpec* flag = nullptr;
    for (const FlagSpec& f : kTable)
      if ((honoured & f.bit) != 0 && arg.compare(0, eq, f.name) == 0)
        flag = &f;
    if (flag == nullptr)
      usage_error(argv[0], "unknown argument '" + arg + "'; flags:" +
                               (honoured != 0 ? names(honoured) : " none"));
    given |= flag->bit;
    if (flag->on != nullptr) {
      if (eq != std::string::npos)
        usage_error(argv[0], std::string(flag->name) + " takes no value");
      opts.*flag->on = true;
      continue;
    }
    const std::string value = eq != std::string::npos ? arg.substr(eq + 1)
                              : i + 1 < argc           ? argv[++i]
                                                       : "";
    if (value.empty() || value.compare(0, 2, "--") == 0)
      usage_error(argv[0], std::string("missing value for ") + flag->name);
    if (flag->text != nullptr) {
      opts.*flag->text = value;
      continue;
    }
    // A number is plain decimal from its first character on: strtoull
    // reads "-1" as 2^64 - 1, and strtod takes " 5", "+5", "0x10", "inf".
    char* end = nullptr;
    errno = 0;
    if (flag->real != nullptr)
      opts.*flag->real = std::strtod(value.c_str(), &end);
    else
      opts.*flag->count = std::strtoull(value.c_str(), &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
        value.find_first_not_of("0123456789.eE+-") != std::string::npos ||
        *end != '\0' || errno == ERANGE ||
        opts.threads > sim::ThreadPool::kMaxThreads)
      usage_error(argv[0], std::string("invalid value for ") + flag->name +
                               ": '" + value + "'");
  }
  // The run is in the mode whose trigger it passes, else in the plain run.
  // Any other flag belongs to a mode the run is not in.
  Mode mode{0, 0};
  for (const Mode& m : modes)
    if (mode.trigger == 0 && (m.trigger == 0 || (given & m.trigger) != 0))
      mode = m;
  for (const FlagSpec& f : kTable) {
    if ((given & f.bit & ~(mode.trigger | mode.flags)) == 0) continue;
    if (mode.trigger != 0)
      usage_error(argv[0], f.name + (" does not apply with" +
                                     names(mode.trigger)));
    for (const Mode& m : modes)
      if ((m.flags & f.bit) != 0)
        usage_error(argv[0], f.name + (" needs" + names(m.trigger)));
  }
  return opts;
}

}  // namespace atlarge::bench
