#pragma once
// Shared formatting helpers for the experiment harnesses. Each bench
// binary regenerates one table or figure of the paper as aligned text,
// so EXPERIMENTS.md can quote the output directly.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace atlarge::bench {

inline void header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline void note(const std::string& text) {
  std::printf("-- %s\n", text.c_str());
}

/// Writes `text` to `path`, exiting with a message on I/O failure. Used by
/// the `--metrics-out` exporters (the TimeSeries/FlightRecorder classes
/// have their own write_* helpers).
inline void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr || std::fwrite(text.data(), 1, text.size(), f) !=
                          text.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
}

/// Raw value of a `--name=<v>` / `--name <v>` flag, or "" when absent.
inline std::string flag_value(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      return argv[i] + len + 1;
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc)
      return argv[i + 1];
  }
  return "";
}

/// Exits with status 2 and one stderr line naming the flag and the value
/// it was given.
[[noreturn]] inline void bad_flag(const char* name, const std::string& v) {
  std::fprintf(stderr, "invalid value for %s: '%s'\n", name, v.c_str());
  std::exit(2);
}

/// `v` as an unsigned decimal, or bad_flag() unless it starts with a digit
/// (strtoull would read "-1" as 2^64 - 1), is consumed whole and fits in
/// 64 bits.
inline std::uint64_t parse_u64(const char* name, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
      errno == ERANGE)
    bad_flag(name, v);
  return x;
}

/// Double-valued flag (`--faults=20`), or `fallback` when absent; exits
/// through bad_flag() unless the value is consumed whole and finite.
inline double double_flag(int argc, char** argv, const char* name,
                          double fallback) {
  const std::string v = flag_value(argc, argv, name);
  if (v.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(x))
    bad_flag(name, v);
  return x;
}

/// Unsigned flag (`--fault-seed=7`), or `fallback` when absent; exits
/// through bad_flag() on a value parse_u64() rejects.
inline std::uint64_t u64_flag(int argc, char** argv, const char* name,
                              std::uint64_t fallback) {
  const std::string v = flag_value(argc, argv, name);
  return v.empty() ? fallback : parse_u64(name, v);
}

}  // namespace atlarge::bench
