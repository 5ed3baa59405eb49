#pragma once
// ResultStore: content-addressed trial results with crash-safe JSONL
// persistence.
//
// Every completed trial is one JSON object on one line of the store file:
//
//   {"key":"89ab...","domain":"serverless","repeat":0,"seed":123,
//    "params":{"keep_alive":"300","prewarmed":"8"},
//    "objective":1.82,"metrics":{"p95_latency":1.82,...}}
//
// Lines are appended and flushed one at a time, so a killed campaign
// loses at most the line being written. On open the store replays the
// file, indexes every valid line by key, and *repairs* the file when the
// tail is truncated or corrupt or the last line lacks its newline: valid
// lines are kept, the broken tail is dropped (recovered()/discarded_lines()
// report what happened), and the file is rewritten before appending
// resumes — so a crash-resume cycle always leaves a well-formed JSONL file
// behind.
//
// Memoization is just lookup(): the TrialRunner consults the store before
// running a trial and reuses the stored record on a hit, which makes
// re-running an unchanged campaign ~free and makes `kill -9` + re-run a
// checkpoint/resume mechanism with per-trial granularity.
//
// A default-constructed store is memory-only (no persistence) — used by
// tests and benchmarks.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace atlarge::exp {

/// The persisted slice of a trial: everything aggregation needs.
/// Metric values round-trip through the JSON number format, so runner
/// code canonicalizes doubles before constructing a record — a record
/// read back from disk is bitwise identical to the one appended.
struct TrialRecord {
  std::string key;
  double objective = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
  /// Optional serialized obs::Digest (empty when the adapter recorded
  /// none). Digest serialization is exact (%.17g + integer buckets), so
  /// the string read back from disk equals the one appended; lines
  /// written before this field existed simply parse to an empty digest.
  std::string digest;
};

/// Presentation context persisted alongside a record (not needed to
/// aggregate, but it makes the JSONL self-describing for external tools).
struct TrialRowContext {
  std::string domain;
  std::uint32_t repeat = 0;
  std::uint64_t seed = 0;
  /// (parameter name, option label) in adapter order.
  std::vector<std::pair<std::string, std::string>> params;
};

class ResultStore {
 public:
  /// Memory-only store.
  ResultStore() = default;

  /// Opens (creating if absent) the JSONL store at `path`, replaying and
  /// repairing it as described above. Throws std::runtime_error when the
  /// file exists but cannot be read, or the directory cannot be written.
  explicit ResultStore(const std::string& path);

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;
  ~ResultStore();

  /// The record for `key`, or nullptr. Pointers stay valid until the
  /// store is destroyed (records are never evicted).
  const TrialRecord* lookup(const std::string& key) const;

  /// Indexes the record and, for persistent stores, appends + flushes its
  /// JSONL line. Re-appending an existing key is a no-op (idempotent).
  /// Throws std::invalid_argument on an empty key or a non-finite
  /// objective or metric, which JSON cannot hold.
  void append(const TrialRecord& record, const TrialRowContext& context);

  std::size_t size() const noexcept { return records_.size(); }
  const std::string& path() const noexcept { return path_; }

  /// Valid lines replayed at open.
  std::size_t recovered() const noexcept { return recovered_; }
  /// Malformed/truncated lines dropped (and repaired away) at open.
  std::size_t discarded_lines() const noexcept { return discarded_; }

 private:
  void open_and_replay();
  static std::string render_line(const TrialRecord& record,
                                 const TrialRowContext& context);

  std::string path_;  // empty: memory-only
  std::FILE* file_ = nullptr;
  std::map<std::string, TrialRecord> records_;
  std::size_t recovered_ = 0;
  std::size_t discarded_ = 0;
};

/// Parses one JSONL store line into a record; returns false on any
/// malformation (unterminated string, missing key/objective/metrics,
/// trailing garbage) and on anything outside RFC 8259, such as `inf`,
/// `nan`, `+2`, `01` or a lone surrogate escape. Exposed for tests and
/// external tooling.
bool parse_trial_line(const std::string& line, TrialRecord& out);

}  // namespace atlarge::exp
