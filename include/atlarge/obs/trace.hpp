#pragma once
// Span/instant tracer over a preallocated ring buffer.
//
// Granula's lesson (paper [100]) generalized: every simulator should be
// able to say *where the time goes*, not just report end-to-end numbers.
// The tracer records begin/end span markers and instant events, each
// stamped with both simulated time and wall time, into a fixed-capacity
// ring: recording is wait-free and allocation-free, and when the ring is
// full the oldest records are overwritten (a drop counter reports how
// many) — a long run degrades to "the most recent window" instead of
// growing without bound.
//
// The null-sink fast path: a default-constructed (or disabled) tracer
// reduces every begin/end/instant call to a load and branch on a single
// bool, so instrumented code pays ~nothing when tracing is off.
//
// `name` and `category` are stored as raw pointers and are NOT copied:
// pass string literals (or strings that outlive the tracer).
//
// Export: chrome_json() emits Chrome trace_event JSON ("JSON Object
// Format", B/E/i phase events, ts in wall-clock microseconds, simulated
// time attached as args.t_sim), directly loadable in about://tracing and
// Perfetto. The exporter re-balances records around ring wraps: orphaned
// E records (whose B was overwritten) are skipped, and spans still open
// at export time are closed at the last recorded timestamp.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace atlarge::obs {

enum class SpanKind : std::uint8_t { kBegin, kEnd, kInstant };

struct TraceRecord {
  const char* name = "";
  const char* category = "";
  double sim_time = 0.0;  // simulated seconds
  double wall_us = 0.0;   // wall microseconds since tracer enable()
  SpanKind kind = SpanKind::kInstant;
};

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(std::size_t capacity) { enable(capacity); }

  /// Preallocates a ring of `capacity` records and starts recording;
  /// resets any previously recorded state. capacity 0 leaves the tracer
  /// disabled.
  void enable(std::size_t capacity = 1 << 16);
  void disable() noexcept { enabled_ = false; }
  bool enabled() const noexcept { return enabled_; }

  void begin(const char* name, const char* category, double sim_time = 0.0) {
    if (!enabled_) return;
    record(name, category, sim_time, SpanKind::kBegin);
  }

  void end(const char* name, const char* category, double sim_time = 0.0) {
    if (!enabled_) return;
    record(name, category, sim_time, SpanKind::kEnd);
  }

  void instant(const char* name, const char* category,
               double sim_time = 0.0) {
    if (!enabled_) return;
    record(name, category, sim_time, SpanKind::kInstant);
  }

  /// Records ever submitted (including overwritten ones).
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Records lost to ring wrap (oldest-first).
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Records currently held.
  std::size_t size() const noexcept { return size_; }

  /// Snapshot of the held records, oldest first.
  std::vector<TraceRecord> records() const;

  /// Chrome trace_event JSON (see file comment).
  std::string chrome_json() const;

 private:
  void record(const char* name, const char* category, double sim_time,
              SpanKind kind);
  double wall_now_us() const;

  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  // index of the oldest record
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
  bool enabled_ = false;
};

/// RAII span: begin on construction, end on destruction. The end record
/// reuses the construction-time sim_time unless set_end_sim_time() was
/// called (simulated time usually advances during the span).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* category,
             double sim_time = 0.0)
      : tracer_(&tracer),
        name_(name),
        category_(category),
        end_sim_time_(sim_time) {
    tracer_->begin(name, category, sim_time);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_end_sim_time(double sim_time) noexcept {
    end_sim_time_ = sim_time;
  }

  ~ScopedSpan() { tracer_->end(name_, category_, end_sim_time_); }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  double end_sim_time_;
};

}  // namespace atlarge::obs
