#include "atlarge/obs/timeseries.hpp"

#include <cstdio>

#include "atlarge/obs/json.hpp"

namespace atlarge::obs {
namespace {

void append_exact(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

TimeSeries::TimeSeries(double interval, std::size_t capacity)
    : interval_(interval), capacity_(capacity == 0 ? 1 : capacity) {}

void TimeSeries::track_counter(const std::string& name,
                               const Counter& counter) {
  if (frozen_) return;
  columns_.push_back(Column{&counter, nullptr});
  names_.push_back(name);
}

void TimeSeries::track_gauge(const std::string& name, const Gauge& gauge) {
  if (frozen_) return;
  columns_.push_back(Column{nullptr, &gauge});
  names_.push_back(name);
}

double TimeSeries::read(std::size_t column) const noexcept {
  const Column& c = columns_[column];
  return c.counter != nullptr ? static_cast<double>(c.counter->value())
                              : c.gauge->value();
}

void TimeSeries::sample(double t) {
  const std::size_t width = 1 + columns_.size();
  if (!frozen_) {
    // The one allocation: the full ring, sized at the frozen column set.
    data_.resize(capacity_ * width);
    frozen_ = true;
  }
  double* row = data_.data() + head_ * width;
  row[0] = t;
  for (std::size_t c = 0; c < columns_.size(); ++c) row[1 + c] = read(c);
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  if (size_ < capacity_)
    ++size_;
  else
    ++dropped_;
}

std::size_t TimeSeries::row_start(std::size_t row) const noexcept {
  // Oldest retained row sits at head_ once the ring has wrapped.
  const std::size_t first = size_ < capacity_ ? 0 : head_;
  const std::size_t slot =
      first + row >= capacity_ ? first + row - capacity_ : first + row;
  return slot * (1 + columns_.size());
}

double TimeSeries::time_at(std::size_t row) const noexcept {
  return data_[row_start(row)];
}

double TimeSeries::value_at(std::size_t row,
                            std::size_t column) const noexcept {
  return data_[row_start(row) + 1 + column];
}

std::string TimeSeries::csv() const {
  std::string out = "time";
  for (const std::string& name : names_) {
    out += ',';
    out += name;
  }
  out += '\n';
  for (std::size_t r = 0; r < size_; ++r) {
    const std::size_t start = row_start(r);
    for (std::size_t c = 0; c < 1 + columns_.size(); ++c) {
      if (c != 0) out += ',';
      append_exact(out, data_[start + c]);
    }
    out += '\n';
  }
  return out;
}

std::string TimeSeries::json() const {
  JsonWriter w;
  w.begin_object();
  w.key("interval").value(interval_);
  w.key("dropped").value(static_cast<std::uint64_t>(dropped_));
  w.key("columns").begin_array();
  w.value("time");
  for (const std::string& name : names_) w.value(name);
  w.end_array();
  w.key("rows").begin_array();
  for (std::size_t r = 0; r < size_; ++r) {
    const std::size_t start = row_start(r);
    w.begin_array();
    for (std::size_t c = 0; c < 1 + columns_.size(); ++c)
      w.value(data_[start + c]);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace atlarge::obs
