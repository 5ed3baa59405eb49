#pragma once
// Continuous sim-time series: the paper's "monitoring agent" as a
// plane-level recorder. A TimeSeries tracks registered Registry
// instruments (counters and gauges) and appends one row per kernel
// sampling boundary — attach it through Observability::sampling_hook() /
// Simulation::set_sampling_hook, or call sample() directly from non-DES
// loops (the p2p fluid model's epochs).
//
// Storage is a fixed-capacity ring of rows: the first sample allocates the
// backing buffer once (column count is frozen there), and every later
// sample is a handful of loads and stores — zero-alloc steady state, with
// dropped() counting rows that overwrote the oldest history. Rows are a
// pure function of sim-time state, so the recorded series is byte-identical
// across queue backends and host thread counts.
//
// Export: csv() for eyeballs and spreadsheets (%.17g, exact round-trip),
// json() for tools (shared JsonWriter formatting). Both are deterministic
// functions of the recorded rows, so equal series compare equal as text.

#include <cstddef>
#include <string>
#include <vector>

#include "atlarge/obs/metrics.hpp"
#include "atlarge/sim/simulation.hpp"

namespace atlarge::obs {

class TimeSeries final : public sim::SamplingHook {
 public:
  /// `interval` is the sim-time sampling period advertised through
  /// Observability (and stamped into exports); `capacity` bounds retained
  /// rows (older rows are overwritten once full).
  explicit TimeSeries(double interval = 1.0, std::size_t capacity = 4096);

  /// Registers a column. Call before the first sample; registrations after
  /// the column set is frozen are ignored. Instruments are not owned and
  /// must outlive the TimeSeries.
  void track_counter(const std::string& name, const Counter& counter);
  void track_gauge(const std::string& name, const Gauge& gauge);

  double interval() const noexcept { return interval_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t columns() const noexcept { return columns_.size(); }

  /// SamplingHook: one row per kernel boundary.
  void on_sample(sim::Time now) override { sample(now); }

  /// Appends one row at sim-time `t` (manual path for non-DES loops).
  void sample(double t);

  /// Retained rows (<= capacity) and rows lost to ring wraparound.
  std::size_t size() const noexcept { return size_; }
  std::size_t dropped() const noexcept { return dropped_; }

  /// Row access, oldest retained row first.
  double time_at(std::size_t row) const noexcept;
  double value_at(std::size_t row, std::size_t column) const noexcept;
  const std::vector<std::string>& names() const noexcept { return names_; }

  /// "time,<col>,...\n" header plus one %.17g row per retained sample.
  std::string csv() const;
  /// {"interval":...,"dropped":...,"columns":["time",...],"rows":[[...]]}
  std::string json() const;

 private:
  struct Column {
    const Counter* counter = nullptr;  // exactly one of the two is set
    const Gauge* gauge = nullptr;
  };

  double read(std::size_t column) const noexcept;
  std::size_t row_start(std::size_t row) const noexcept;

  double interval_;
  std::size_t capacity_;
  std::vector<Column> columns_;
  std::vector<std::string> names_;
  std::vector<double> data_;  // ring of rows: [time, col0, col1, ...]
  std::size_t head_ = 0;      // next row slot to write
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
  bool frozen_ = false;
};

}  // namespace atlarge::obs
