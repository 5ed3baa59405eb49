#include "atlarge/obs/trace.hpp"

#include "atlarge/obs/json.hpp"

namespace atlarge::obs {

void Tracer::enable(std::size_t capacity) {
  ring_.assign(capacity, TraceRecord{});
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  enabled_ = capacity > 0;
}

double Tracer::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(const char* name, const char* category, double sim_time,
                    SpanKind kind) {
  const TraceRecord rec{name, category, sim_time, wall_now_us(), kind};
  ++recorded_;
  if (size_ < ring_.size()) {
    ring_[(head_ + size_) % ring_.size()] = rec;
    ++size_;
  } else {
    // Full: overwrite the oldest record.
    ring_[head_] = rec;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }
}

std::vector<TraceRecord> Tracer::records() const {
  std::vector<TraceRecord> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::string Tracer::chrome_json() const {
  const auto recs = records();
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  const auto emit = [&w](const char* name, const char* category,
                         const char* ph, double wall_us, double sim_time) {
    w.begin_object();
    w.key("name").value(name);
    w.key("cat").value(category);
    w.key("ph").value(ph);
    w.key("ts").value(wall_us);
    w.key("pid").value(0);
    w.key("tid").value(0);
    w.key("args").begin_object().key("t_sim").value(sim_time).end_object();
    w.end_object();
  };

  // B/E records nest like a stack (single logical thread), so orphaned E
  // records from a ring wrap are exactly the E's seen at depth 0; open B's
  // at the end are closed at the last timestamp so every B has an E.
  std::vector<const TraceRecord*> open;
  double last_wall_us = 0.0;
  double last_sim = 0.0;
  for (const auto& rec : recs) {
    last_wall_us = rec.wall_us;
    last_sim = rec.sim_time;
    switch (rec.kind) {
      case SpanKind::kBegin:
        open.push_back(&rec);
        emit(rec.name, rec.category, "B", rec.wall_us, rec.sim_time);
        break;
      case SpanKind::kEnd:
        if (open.empty()) break;  // begin lost to ring wrap
        open.pop_back();
        emit(rec.name, rec.category, "E", rec.wall_us, rec.sim_time);
        break;
      case SpanKind::kInstant:
        emit(rec.name, rec.category, "i", rec.wall_us, rec.sim_time);
        break;
    }
  }
  while (!open.empty()) {
    const TraceRecord* b = open.back();
    open.pop_back();
    emit(b->name, b->category, "E", last_wall_us, last_sim);
  }

  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData")
      .begin_object()
      .key("recorded")
      .value(recorded_)
      .key("dropped")
      .value(dropped_)
      .end_object();
  w.end_object();
  return w.str();
}

}  // namespace atlarge::obs
