#pragma once
// Metrics registry: named counters, gauges, and quantile digests with
// O(1) hot-path updates.
//
// The intended usage pattern is registration-then-update: a component
// looks its instruments up by name once (O(log n), allocates), keeps the
// returned references, and updates through them on the hot path (a single
// add/store, no lookup, no allocation). References stay valid for the
// Registry's lifetime — instruments live in node-based maps and are never
// removed.
//
// Snapshots serialize to JSON, for programmatic consumers and the bench
// harnesses' --metrics-out files.
//
// Instruments are NOT thread-safe: update them from one thread at a time
// (in this codebase, from simulation event handlers, which are serial by
// construction — the parallel portfolio evaluation deliberately does not
// touch the registry from worker threads).

#include <cstdint>
#include <map>
#include <string>

#include "atlarge/obs/digest.hpp"

namespace atlarge::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depth, supply cores, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Named instrument registry; one per run/plane.
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  /// Fine-grained mergeable quantile digest (see obs/digest.hpp) — the
  /// registry's one distribution instrument, behind latency-quantile SLOs
  /// and campaign digest merging.
  Digest& digest(const std::string& name) { return digests_[name]; }

  const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, Digest>& digests() const noexcept {
    return digests_;
  }

  /// {"counters":{...},"gauges":{...},"digests":{name:{count,sum,min,max,
  /// mean,p50,p95,p99,p999}}}
  std::string json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Digest> digests_;
};

}  // namespace atlarge::obs
