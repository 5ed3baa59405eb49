#pragma once
// The canonical workload-event schema of the trace plane.
//
// Every workload generator (trace/gen.hpp) and every catalog scenario
// (trace/catalog.hpp) speaks one five-column record: *when* (microsecond
// timestamp), *who* (entity — a user, peer, or tenant id), *what* (session
// start / request / session end), *how much* (size, in work units the
// consuming engine interprets), and *where* (region). All five are integer
// columns, which is what makes the .atl delta/varint encoding compact: a
// million-user day compresses to a few bytes per event.
//
// The schema is deliberately engine-agnostic. A serverless replay turns
// requests into invocations; a P2P replay turns session starts into peer
// arrivals; the sched/autoscale replays turn sessions into submitted jobs.
// One trace, four engines — the paper's "workloads as first-class design
// artifacts" (Secs. 3.6, 5) made concrete.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace atlarge::trace {

/// What an event marks in an entity's lifetime.
enum class EventKind : std::int64_t {
  kSessionStart = 0,  // entity appears (peer arrival, user login, job submit)
  kRequest = 1,       // one unit of demand (invocation, delivery, message)
  kSessionEnd = 2,    // entity departs
};

/// One workload event. All fields are integers so the .atl writer can
/// delta/varint-encode every column.
struct Event {
  std::int64_t t_us = 0;    // microseconds since trace start, nondecreasing
  std::int64_t entity = 0;  // stable user/peer/key id
  std::int64_t kind = 0;    // EventKind
  std::int64_t size = 0;    // work units (payload KB, core-ms, fanout, ...)
  std::int64_t region = 0;  // region/zone index

  double t_seconds() const noexcept {
    return static_cast<double>(t_us) * 1e-6;
  }
};

/// Seconds -> event timestamp (the one conversion every generator uses).
inline std::int64_t to_micros(double seconds) noexcept {
  return static_cast<std::int64_t>(seconds * 1e6 + 0.5);
}

/// Push-side consumer: generators emit events in nondecreasing t_us order
/// into a sink (a TraceWriter, a vector, a replay adapter, ...).
using EventSink = std::function<void(const Event&)>;

/// Pull-side producer: replay adapters drain a stream one event at a time,
/// so a multi-GB .atl trace replays with only the reader's current chunk
/// resident. Streams yield events in nondecreasing t_us order.
class EventStream {
 public:
  virtual ~EventStream() = default;
  /// Fills `out` with the next event; returns false at end of stream.
  virtual bool next(Event& out) = 0;
};

/// In-memory stream over a pre-generated event vector (campaign trials and
/// tests; the file-backed counterpart is AtlEventStream in atl.hpp).
class VectorEventStream final : public EventStream {
 public:
  explicit VectorEventStream(const std::vector<Event>& events)
      : events_(&events) {}

  bool next(Event& out) override {
    if (pos_ >= events_->size()) return false;
    out = (*events_)[pos_++];
    return true;
  }

 private:
  const std::vector<Event>* events_;
  std::size_t pos_ = 0;
};

}  // namespace atlarge::trace
