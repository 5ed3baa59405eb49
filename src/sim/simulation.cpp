#include "atlarge/sim/simulation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace atlarge::sim {

namespace {
// cancel_slot compacts the queue once heap_ holds more than
// 2 * live + kTombstoneSlack records (see compact_queue).
constexpr std::size_t kTombstoneSlack = 64;
}  // namespace

// Out of line so EventSlot destructors (which may destroy arena-resident
// payloads) run before arena_ — guaranteed by member order: arena_ is
// declared first, so it is destroyed last.
Simulation::~Simulation() = default;

bool EventHandle::pending() const noexcept {
  return sim_ != nullptr && sim_->slot_pending(slot_, generation_);
}

bool EventHandle::cancel() noexcept {
  return sim_ != nullptr && sim_->cancel_slot(slot_, generation_);
}

bool Simulation::slot_pending(std::uint32_t slot,
                              std::uint64_t generation) const noexcept {
  assert_owner_thread();
  return slot < slots_.size() && slots_[slot].generation == generation &&
         slots_[slot].live;
}

bool Simulation::cancel_slot(std::uint32_t slot,
                             std::uint64_t generation) noexcept {
  assert_owner_thread();
  if (!slot_pending(slot, generation)) return false;
  EventSlot& s = slots_[slot];
  s.live = false;
  destroy_payload(s);  // drop captured state eagerly; the queue record
                       // stays behind as a tombstone until it is popped
                       // or compacted away
  --live_;
  if (observer_ != nullptr) observer_->on_cancel(now_, live_);
  if (heap_.size() > 2 * live_ + kTombstoneSlack) compact_queue();
  return true;
}

// Drops every cancelled tombstone from heap_, recycling its slot (the
// generation bump kills stale handles, and the slot's payload block
// returns with it to the free list), then rebuilds the 4-ary heap in
// place with Floyd's bottom-up construction. Without this a tombstone
// holds its slot until its timestamp is popped, so a timer re-armed far
// ahead on every event (a serverless keep-alive) grows the queue with
// the number of cancels instead of the live set. cancel_slot calls it
// only when more than half of heap_ is tombstones, so one pass costs
// O(1) amortised per cancel. Records are a strict total order on
// (time, seq, slot), so every heap over the survivors pops them in the
// same order: compaction never changes which event fires next. The
// batch run_batch is executing sits outside heap_ and is left alone.
void Simulation::compact_queue() noexcept {
  std::size_t n = 0;
  for (const QueueRecord rec : heap_) {
    const std::uint32_t slot = record_slot(rec);
    if (slots_[slot].live)
      heap_[n++] = rec;
    else
      release_slot(slot);
  }
  heap_.resize(n);
  if (n < 2) return;
  for (std::size_t top = ((n - 2) >> 2) + 1; top-- > 0;) {
    const QueueRecord rec = heap_[top];
    std::size_t i = top;
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + 4, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (heap_[c] < heap_[best]) best = c;
      if (rec < heap_[best]) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = rec;
  }
}

void Simulation::note_alloc_event() noexcept {
  ++alloc_events_;
  if (observer_ != nullptr) observer_->on_alloc_event();
}

std::uint32_t Simulation::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slots_.size() >= (std::size_t{1} << kSlotBits))
    throw std::length_error("Simulation: too many concurrent events");
  if (slots_.size() == slots_.capacity()) note_alloc_event();
  const std::size_t chunks_before = arena_.chunks();
  void* const block = arena_.allocate(EventSlot::kInlineBytes);
  if (arena_.chunks() != chunks_before) note_alloc_event();
  slots_.emplace_back();
  slots_.back().block = block;  // paired with the slot for its lifetime
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulation::destroy_payload(EventSlot& s) noexcept {
  if (s.ops == nullptr) return;
  // Disown before destroying: a destructor that cancels another event
  // may compact the queue, and that pass must see this slot as empty.
  const detail::PayloadOps* const ops = s.ops;
  void* const heap_payload = s.heap_payload;
  const std::uint32_t cls = s.payload_class;
  s.ops = nullptr;
  s.heap_payload = nullptr;
  s.payload_class = 0;
  ops->destroy(heap_payload != nullptr ? heap_payload : s.block);
  if (heap_payload != nullptr) {
    if (cls != 0)
      arena_.deallocate(heap_payload, cls);
    else
      ::operator delete(heap_payload);
  }
}

void Simulation::release_slot(std::uint32_t slot) noexcept {
  EventSlot& s = slots_[slot];
  destroy_payload(s);
  s.live = false;
  ++s.generation;  // invalidate every outstanding handle to this slot
  if (free_slots_.size() == free_slots_.capacity()) note_alloc_event();
  free_slots_.push_back(slot);
}

Simulation::QueueRecord Simulation::pack(Time time,
                                         std::uint64_t seq_slot) noexcept {
  // Valid because schedule_slot clamps every time to >= now_ >= +0.0: the
  // IEEE-754 bit pattern of a non-negative double is monotone in its value.
  return (static_cast<QueueRecord>(std::bit_cast<std::uint64_t>(time)) << 64) |
         seq_slot;
}

Time Simulation::next_event_time() {
  assert_owner_thread();
  purge_cancelled();
  return heap_.empty() ? std::numeric_limits<Time>::infinity()
                       : record_time(heap_.front());
}

EventHandle Simulation::schedule_slot(Time at, std::uint32_t slot) {
  EventSlot& s = slots_[slot];
  s.live = true;
  ++live_;
  // Not std::max(at, now_): that keeps -0.0 and NaN, whose bit patterns
  // sort after every positive time.
  const Time when = at > now_ ? at : now_;
  heap_push(pack(when, (next_seq_++ << kSlotBits) | slot));
  if (observer_ != nullptr) observer_->on_schedule(when, live_);
  return EventHandle(this, slot, s.generation);
}

void Simulation::heap_push(QueueRecord rec) {
  if (heap_.size() == heap_.capacity()) note_alloc_event();
  heap_.push_back(rec);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (heap_[parent] <= rec) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = rec;
}

void Simulation::heap_pop_front() noexcept {
  const std::size_t n = heap_.size() - 1;
  const QueueRecord back = heap_[n];
  heap_.pop_back();
  if (n == 0) return;
  // Bottom-up pop: sink the root hole to the bottom along min-children
  // (one compare chain per level, no test against `back`), then float
  // `back` up from there — it usually belongs near the bottom, so this
  // does fewer compares than the classic top-down sift.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (heap_[c] < heap_[best]) best = c;
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (heap_[parent] <= back) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = back;
}

// Refills batch_ with every record sharing the root's timestamp, removed
// from the heap — already in full record order, because consecutive pops of
// equal-time records come out sorted by (seq, slot). Equal-key pops on
// the 4-ary heap are cheap (the replacement's float-up is shallow while
// the root's timestamp repeats), so pop-collection measured faster here
// than subtree extraction with Floyd-style hole repair — the batching win
// on the heap is in the dispatch loop (queue mutation decoupled from
// action side effects, one timestamp resolution per run), not in the pop
// count.
void Simulation::heap_extract_equal_run() {
  batch_.clear();
  const std::size_t cap_before = batch_.capacity();
  const QueueRecord front = heap_.front();
  const std::uint64_t time_bits = static_cast<std::uint64_t>(front >> 64);
  batch_.push_back(front);
  heap_pop_front();
  while (!heap_.empty() &&
         static_cast<std::uint64_t>(heap_.front() >> 64) == time_bits) {
    batch_.push_back(heap_.front());
    heap_pop_front();
  }
  if (batch_.capacity() != cap_before) note_alloc_event();
}

void Simulation::reserve(std::size_t events, std::size_t payload_bytes) {
  slots_.reserve(events);
  free_slots_.reserve(events);
  batch_.reserve(events);
  heap_.reserve(events);
  arena_.reserve(events * EventSlot::kInlineBytes + payload_bytes);
}

// Marks the slot fired and invokes the payload in place — its arena block
// is stable, so no move-out is needed even if the action grows the slot
// pool (which may reallocate slots_, hence no slot reference is held
// across the call). The slot's generation is bumped up front so stale
// handles die before the action runs, but the slot only joins the free
// list afterwards: its payload must not be overwritten while executing.
// The guard destroys the payload and recycles the slot even if the action
// throws.
void Simulation::fire_slot(std::uint32_t slot) {
  EventSlot& s = slots_[slot];
  s.live = false;  // fired; handles report !pending()
  --live_;
  if (observer_ != nullptr) observer_->on_fire(now_, live_);
  const detail::PayloadOps* const ops = s.ops;
  void* const heap_payload = s.heap_payload;
  void* const payload = heap_payload != nullptr ? heap_payload : s.block;
  const std::uint32_t cls = s.payload_class;
  s.ops = nullptr;  // ownership moves to the guard below
  s.heap_payload = nullptr;
  s.payload_class = 0;
  ++s.generation;  // invalidate every outstanding handle to this slot
  struct PayloadGuard {
    Simulation* sim;
    const detail::PayloadOps* ops;
    void* payload;
    void* heap_payload;
    std::uint32_t cls;
    std::uint32_t slot;
    ~PayloadGuard() {
      ops->destroy(payload);
      if (heap_payload != nullptr) {
        if (cls != 0)
          sim->arena_.deallocate(heap_payload, cls);
        else
          ::operator delete(heap_payload);
      }
      if (sim->free_slots_.size() == sim->free_slots_.capacity())
        sim->note_alloc_event();
      sim->free_slots_.push_back(slot);
    }
  } guard{this, ops, payload, heap_payload, cls, slot};
  ops->invoke(payload);
}

bool Simulation::step() {
  assert_owner_thread();
  while (!heap_.empty()) {
    const QueueRecord top = heap_.front();
    heap_pop_front();
    const std::uint32_t slot = record_slot(top);
    if (!slots_[slot].live) {  // cancelled tombstone
      release_slot(slot);
      continue;
    }
    now_ = record_time(top);
    fire_slot(slot);
    return true;
  }
  return false;
}

void Simulation::purge_cancelled() {
  while (!heap_.empty()) {
    const std::uint32_t slot = record_slot(heap_.front());
    if (slots_[slot].live) break;
    heap_pop_front();
    release_slot(slot);
  }
}

// Executes one equal-time batch: a single queue extraction per distinct
// timestamp instead of one pop (and heap repair) per event. The guard
// returns any unexecuted remainder to the queue — after stop(), or if an
// action throws — with the original records, so resuming preserves the
// exact (time, seq) order. Events an action schedules at the current
// timestamp carry larger sequence numbers and fire in the *next* batch at
// this time, exactly as the per-pop loop ordered them. batch_ is swapped
// out during execution so a reentrant run() inside an action cannot
// clobber the batch being drained.
std::size_t Simulation::run_batch() {
  heap_extract_equal_run();
  now_ = record_time(batch_.front());
  struct BatchGuard {
    Simulation* sim;
    std::vector<QueueRecord> batch;
    std::size_t next = 0;
    ~BatchGuard() {
      for (std::size_t j = next; j < batch.size(); ++j)
        sim->heap_push(batch[j]);
      batch.clear();
      sim->batch_.swap(batch);  // hand the capacity back for reuse
    }
  } g{this, {}};
  g.batch.swap(batch_);
  std::size_t executed = 0;
  while (g.next < g.batch.size()) {
    const QueueRecord rec = g.batch[g.next++];
    const std::uint32_t slot = record_slot(rec);
    if (!slots_[slot].live) {  // cancelled mid-batch or earlier
      release_slot(slot);
      continue;
    }
    fire_slot(slot);
    ++executed;
    if (stopped_) break;
  }
  return executed;
}

// Crossed sampling boundaries fire before the batch that passes them: the
// clock steps to each boundary (so the hook sees now() == boundary), the
// hook observes the state produced by strictly earlier events, and only
// then does the batch advance the clock. Boundary times depend on event
// timestamps alone.
void Simulation::emit_samples(Time upto) {
  while (next_sample_ <= upto) {
    now_ = next_sample_;
    sampling_hook_->on_sample(next_sample_);
    next_sample_ += sample_interval_;
  }
}

std::size_t Simulation::run_until(Time until) {
  assert_owner_thread();
  stopped_ = false;
  std::size_t executed = 0;
  if (observer_ != nullptr) observer_->on_run_begin(now_);
  // Purge before peeking: a cancelled tombstone at the front may carry an
  // earlier timestamp than the first live event, and peeking at it would
  // stop the run short of events that should still fire.
  purge_cancelled();
  while (!stopped_ && !heap_.empty() &&
         record_time(heap_.front()) <= until) {
    if (sampling_hook_ != nullptr) emit_samples(record_time(heap_.front()));
    executed += run_batch();
    purge_cancelled();
  }
  if (heap_.empty() || record_time(heap_.front()) > until) {
    // Cover the idle tail so a recorded series spans the full horizon (an
    // infinite horizon has no tail to cover).
    if (sampling_hook_ != nullptr && !stopped_ && std::isfinite(until))
      emit_samples(until);
    now_ = std::max(now_, until);
  }
  if (observer_ != nullptr) observer_->on_run_end(now_, executed);
  return executed;
}

std::size_t Simulation::run() {
  assert_owner_thread();
  stopped_ = false;
  std::size_t executed = 0;
  if (observer_ != nullptr) observer_->on_run_begin(now_);
  purge_cancelled();
  while (!stopped_ && !heap_.empty()) {
    if (sampling_hook_ != nullptr) emit_samples(record_time(heap_.front()));
    executed += run_batch();
    purge_cancelled();
  }
  if (observer_ != nullptr) observer_->on_run_end(now_, executed);
  return executed;
}

}  // namespace atlarge::sim
