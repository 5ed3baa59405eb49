#include "atlarge/stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

namespace atlarge::stats {

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double quantile(std::span<const double> sample, double q) {
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, q);
}

double mean(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  double total = 0.0;
  for (double x : sample) total += x;
  return total / static_cast<double>(sample.size());
}

Summary summarize(std::span<const double> sample) {
  Summary s;
  if (sample.empty()) return s;
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  s.count = sorted.size();
  s.min = sorted.front();
  s.max = sorted.back();
  s.mean = mean(sorted);
  double m2 = 0.0;
  for (double x : sorted) m2 += (x - s.mean) * (x - s.mean);
  s.stddev = sorted.size() > 1
                 ? std::sqrt(m2 / static_cast<double>(sorted.size() - 1))
                 : 0.0;
  s.median = quantile_sorted(sorted, 0.5);
  s.q1 = quantile_sorted(sorted, 0.25);
  s.q3 = quantile_sorted(sorted, 0.75);
  return s;
}

void TimeWeighted::observe(double time, double value) noexcept {
  if (!started_) {
    started_ = true;
    start_time_ = last_time_ = time;
    value_ = value;
    return;
  }
  if (time > last_time_) {
    integral_ += value_ * (time - last_time_);
    last_time_ = time;
  }
  value_ = value;
}

double TimeWeighted::average(double end_time) const noexcept {
  if (!started_ || end_time <= start_time_) return value_;
  double integral = integral_;
  if (end_time > last_time_) integral += value_ * (end_time - last_time_);
  return integral / (end_time - start_time_);
}

}  // namespace atlarge::stats
