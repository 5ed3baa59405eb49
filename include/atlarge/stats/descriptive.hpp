#pragma once
// Descriptive statistics used throughout the benchmark harnesses: the paper
// reports medians, means, IQRs (Figure 3), slowdowns and speedups (Sections
// 6.1-6.7). Summary computes them in one pass over a sample; TimeWeighted
// averages a piecewise-constant signal over simulated time.

#include <cstddef>
#include <span>
#include <vector>

namespace atlarge::stats {

/// One-shot summary of a sample. Quantiles use linear interpolation
/// (type-7, the R/NumPy default).
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double q1 = 0.0;  // 25th percentile
  double q3 = 0.0;  // 75th percentile

  double iqr() const noexcept { return q3 - q1; }
};

/// Computes a Summary of the sample. Empty samples yield a zero Summary.
Summary summarize(std::span<const double> sample);

/// Quantile q in [0, 1] of the sample, linear interpolation. The sample
/// need not be sorted. Returns 0 for empty samples.
double quantile(std::span<const double> sample, double q);

/// Quantile over an already-sorted sample (ascending).
double quantile_sorted(std::span<const double> sorted, double q);

/// Arithmetic mean; 0 for empty samples.
double mean(std::span<const double> sample);

/// Time-weighted average of a piecewise-constant signal, e.g. utilization
/// or queue length over simulated time. Feed (time, value) observations in
/// nondecreasing time order; value holds until the next observation.
class TimeWeighted {
 public:
  void observe(double time, double value) noexcept;
  /// Finalizes at end_time and returns the time-weighted mean.
  double average(double end_time) const noexcept;
  double last_value() const noexcept { return value_; }

 private:
  double start_time_ = 0.0;
  double last_time_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
  bool started_ = false;
};

}  // namespace atlarge::stats
