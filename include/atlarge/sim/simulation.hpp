#pragma once
// Discrete-event simulation (DES) kernel.
//
// Every AtLarge substrate — datacenter, P2P swarm, MMOG world, FaaS
// platform — is built on this kernel: a simulated clock plus a totally
// ordered event queue. Events at equal timestamps fire in scheduling order
// (a strictly increasing sequence number breaks ties), which makes every
// simulation a deterministic function of its inputs and RNG seed; the
// determinism tests in tests/sim_test.cpp rely on this.
//
// The kernel is allocation-free per event after warm-up: event state lives
// in a free-list-recycled slot pool, the priority queue orders lightweight
// POD records, and handles are {slot, generation} pairs rather than
// shared-pointer control blocks. A slot's generation is bumped every time
// the slot is recycled, so a stale handle can never cancel or observe an
// unrelated later event that happens to reuse its slot.
//
// Event payloads (the scheduled closures) live in a 64-byte arena block
// paired with each pool slot for the slot's lifetime — no type erasure
// through std::function, no per-event heap traffic, and stable payload
// addresses so closures are constructed, invoked, and destroyed in place.
// Larger closures fall back to per-event blocks from the same bump-pointer
// arena (atlarge/sim/arena.hpp), recycled with the Simulation; only
// payloads past the arena's largest size class ever reach the system
// allocator. Every residual allocation (pool/queue growth, arena chunks,
// oversize payloads) is counted and reported through
// Observer::on_alloc_event, so tests can assert that a pre-sized run is
// allocation-free in steady state.
//
// The event queue is a 4-ary min-heap of packed 128-bit records: cache
// friendly, O(log n), and robust under any schedule shape (DESIGN.md §5
// "One event queue" has the measurements behind keeping only this one).
// run()/run_until() drain equal-time events in batches: all records at the
// front timestamp leave the heap before the first of them fires, so heap
// pops never interleave with action side effects. A cancelled event leaves
// a tombstone record behind; once the heap holds more than twice the live
// events plus a constant slack, the cancel that crossed the line drops
// every tombstone in one pass, so the queue and slot pool stay
// proportional to the live set however often timers are re-armed.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "atlarge/sim/arena.hpp"

namespace atlarge::sim {

/// Simulated time, in seconds since simulation start.
using Time = double;

class Simulation;

namespace detail {

/// Static per-payload-type vtable: the two operations the kernel needs
/// from an erased closure. One immutable constexpr instance per payload
/// type replaces std::function's control block and heap fallback.
/// Payloads are invoked and destroyed in place (their storage never
/// relocates while they are alive), so no move operation is needed.
struct PayloadOps {
  void (*invoke)(void* payload);
  void (*destroy)(void* payload) noexcept;
};

template <class F>
struct PayloadOpsFor {
  static void invoke(void* payload) { (*static_cast<F*>(payload))(); }
  static void destroy(void* payload) noexcept {
    static_cast<F*>(payload)->~F();
  }
  static constexpr PayloadOps ops{&invoke, &destroy};
};

}  // namespace detail

/// Optional kernel instrumentation hook. A Simulation with no observer
/// attached pays one pointer test per schedule/fire/cancel (the null-sink
/// fast path); with an observer attached, the kernel reports every event
/// transition plus run boundaries. Hooks receive the live-event count
/// *after* the transition, so an observer's scheduled/fired/cancelled
/// counters always satisfy pending() == scheduled - fired - cancelled.
/// The obs module provides the standard implementation
/// (atlarge::obs::KernelObserver) that feeds a metrics registry and a
/// span tracer; custom observers can subclass directly.
class Observer {
 public:
  virtual ~Observer() = default;

  /// An event was scheduled at absolute simulated time `at`.
  virtual void on_schedule(Time at, std::size_t pending) {
    (void)at;
    (void)pending;
  }
  /// An event is about to execute at simulated time `now`.
  virtual void on_fire(Time now, std::size_t pending) {
    (void)now;
    (void)pending;
  }
  /// A pending event was cancelled.
  virtual void on_cancel(Time now, std::size_t pending) {
    (void)now;
    (void)pending;
  }
  /// run()/run_until() entered (not emitted for bare step() calls).
  virtual void on_run_begin(Time now) { (void)now; }
  /// run()/run_until() returned after executing `executed` events.
  virtual void on_run_end(Time now, std::size_t executed) {
    (void)now;
    (void)executed;
  }
  /// The kernel touched the system allocator: pool/queue growth, an arena
  /// chunk, or an oversize payload. A pre-sized steady-state run emits
  /// none of these (asserted in tests via Simulation::alloc_events()).
  virtual void on_alloc_event() {}
};

/// Optional periodic sampling hook: the kernel-side seam for continuous
/// telemetry (time-series recorders, SLO monitors). When attached with an
/// interval dt, the kernel invokes on_sample(k*dt) for every grid boundary
/// the clock crosses, *before* executing any event at or past the
/// boundary — so a sample at time b observes exactly the state produced by
/// events strictly earlier than b. Boundaries are derived from event
/// timestamps alone, so the sample stream is independent of host
/// threading. A Simulation with no hook attached pays one pointer test per
/// batch; hooks must not schedule or cancel events. run_until(t) with
/// finite t also emits the trailing boundaries up to t after the queue
/// drains, so a recorded series covers the full horizon even when the tail
/// is idle.
class SamplingHook {
 public:
  virtual ~SamplingHook() = default;

  /// The clock reached sampling boundary `now` (== k * interval).
  virtual void on_sample(Time now) = 0;
};

/// Optional fault hook: a domain-agnostic seam through which a fault
/// plane schedules failure injections as ordinary kernel events, so
/// injections are totally ordered against domain events and every run
/// remains a deterministic function of its inputs. The fault module
/// provides the standard implementation (atlarge::fault::Injector), which
/// replays a materialized FaultPlan; custom hooks can subclass directly.
/// The kernel itself never interprets faults — it only gives the hook a
/// chance to schedule its injections when attached.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Called once by Simulation::set_fault_hook: schedule the hook's
  /// injections (via schedule_at/schedule_after) on `sim`.
  virtual void attach(Simulation& sim) = 0;
};

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. A handle is a {slot index, generation} pair into its
/// Simulation's event pool and must not outlive the Simulation it came from.
///
/// Thread affinity: a handle inherits its Simulation's LP ownership rule
/// (see "LP thread affinity" on Simulation below). cancel() and pending()
/// mutate/read pool state without locks, so in a sharded run they must be
/// invoked only from the thread currently executing the owning LP —
/// never from another LP's event. Debug builds assert this; a release
/// build would silently race. To cancel an event owned by another LP,
/// route the request through ShardedSimulation::send so the owning LP
/// cancels it inside its own event context.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if this handle refers to an event that has not yet fired or been
  /// cancelled.
  bool pending() const noexcept;

  /// Cancels the event if still pending; returns true if it was cancelled
  /// by this call.
  bool cancel() noexcept;

 private:
  friend class Simulation;
  EventHandle(Simulation* sim, std::uint32_t slot, std::uint64_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// The event-driven simulation engine.
class Simulation {
 public:
  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute simulated time `at` (>= now()).
  /// Scheduling in the past is clamped to now(). The callable is stored
  /// in the slot's arena-resident payload block when it fits 64 bytes, in
  /// a per-event arena allocation otherwise — construct captures in
  /// place, no std::function detour.
  template <class F>
  EventHandle schedule_at(Time at, F&& action) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>,
                  "event payload must be callable with no arguments");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned event payloads are not supported");
    assert_owner_thread();
    const std::uint32_t slot = acquire_slot();
    EventSlot& s = slots_[slot];
    void* where;
    if constexpr (sizeof(Fn) <= EventSlot::kInlineBytes) {
      where = s.block;
    } else {
      constexpr std::size_t cls = PayloadArena::size_class(sizeof(Fn));
      if constexpr (cls != 0) {
        const std::size_t chunks_before = arena_.chunks();
        where = arena_.allocate(cls);
        if (arena_.chunks() != chunks_before) note_alloc_event();
      } else {
        where = ::operator new(sizeof(Fn));
        note_alloc_event();
      }
      s.heap_payload = where;
      s.payload_class = static_cast<std::uint32_t>(cls);
    }
    ::new (where) Fn(std::forward<F>(action));
    s.ops = &detail::PayloadOpsFor<Fn>::ops;
    return schedule_slot(at, slot);
  }

  /// Schedules `action` after a relative delay (>= 0).
  template <class F>
  EventHandle schedule_after(Time delay, F&& action) {
    return schedule_at(now_ + std::max(delay, 0.0),
                       std::forward<F>(action));
  }

  /// Runs until the event queue drains or the clock would pass `until`.
  /// Events scheduled exactly at `until` still fire. Returns the number of
  /// events executed.
  std::size_t run_until(Time until);

  /// Runs until the event queue drains completely.
  std::size_t run();

  /// Executes at most one event; returns false if the queue is empty.
  bool step();

  /// Exact number of live (scheduled, not yet fired or cancelled) events.
  /// Maintained as a counter on schedule/cancel/fire, so this is O(1) and
  /// never counts cancelled tombstones still sitting in the queue.
  std::size_t pending() const noexcept { return live_; }

  /// Timestamp of the earliest live event, or +infinity when none is
  /// pending. Purges cancelled tombstones at the queue front first, so
  /// the returned time is exact — the conservative-window scheduler
  /// (sharded.hpp) derives its synchronization floors from this.
  Time next_event_time();

  // ------------------------------------------------------------------
  // LP thread affinity (sharded runs).
  //
  // A Simulation is a single-threaded kernel: schedule_at/schedule_after,
  // EventHandle::cancel()/pending(), step(), and run()/run_until() all
  // mutate pool and queue state without locks. When a Simulation serves
  // as one logical process (LP) of a ShardedSimulation, the rule is that
  // every such call comes from the thread currently executing that LP:
  // the worker the coordinator pinned the LP to during a synchronization
  // window, or the coordinator thread between windows (mailbox delivery,
  // floor queries). Cancelling or rescheduling another LP's event from
  // your own LP's event context is a data race — ask the owning LP to do
  // it by sending it a message (ShardedSimulation::send) instead.
  //
  // bind_owner_thread() pins the kernel to the calling thread and
  // clear_owner_thread() releases it; while bound, debug builds (NDEBUG
  // undefined) assert the rule on every entry point above, so a cross-LP
  // cancel dies loudly instead of corrupting the pool. Release builds
  // compile the checks out entirely.

  /// Binds this kernel to the calling thread (debug-assert affinity).
  void bind_owner_thread() noexcept {
    owner_thread_.store(this_thread_token(), std::memory_order_relaxed);
  }
  /// Releases the binding; any thread may use the kernel again.
  void clear_owner_thread() noexcept {
    owner_thread_.store(0, std::memory_order_relaxed);
  }

  /// Pre-sizes the event pool, queue, dispatch scratch, and — when
  /// `payload_bytes` > 0 — the payload arena, for `events` concurrent
  /// events. A workload that stays within these bounds runs without
  /// touching the system allocator (alloc_events() stays 0).
  void reserve(std::size_t events, std::size_t payload_bytes = 0);

  /// Number of system-allocator events (pool/queue growth, arena chunks,
  /// oversize payloads) since construction. Zero after a reserve()-sized
  /// steady-state run; mirrored to Observer::on_alloc_event.
  std::uint64_t alloc_events() const noexcept { return alloc_events_; }

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  /// Attaches (or, with nullptr, detaches) an instrumentation observer.
  /// Not owned; must outlive the Simulation or be detached first.
  void set_observer(Observer* observer) noexcept { observer_ = observer; }
  Observer* observer() const noexcept { return observer_; }

  /// Attaches a fault hook and lets it schedule its injections (attach()
  /// is invoked immediately). Not owned; must outlive the Simulation.
  /// Passing nullptr detaches without side effects.
  void set_fault_hook(FaultHook* hook) {
    fault_hook_ = hook;
    if (hook != nullptr) hook->attach(*this);
  }
  FaultHook* fault_hook() const noexcept { return fault_hook_; }

  /// Attaches a periodic sampling hook invoked at every multiple of
  /// `interval` the clock crosses during run()/run_until() (see
  /// SamplingHook for the exact boundary semantics). The first boundary is
  /// the smallest multiple of `interval` strictly greater than now().
  /// Passing nullptr detaches; `interval` must be > 0 when attaching.
  /// Not owned; must outlive the Simulation or be detached first.
  void set_sampling_hook(SamplingHook* hook, Time interval) {
    sampling_hook_ = hook;
    sample_interval_ = interval;
    if (hook != nullptr) {
      // Align to the absolute grid so the boundary times are a function of
      // the interval alone, not of when the hook was attached.
      const double k = std::floor(now_ / interval);
      next_sample_ = (k + 1.0) * interval;
    }
  }
  SamplingHook* sampling_hook() const noexcept { return sampling_hook_; }

 private:
  friend class EventHandle;

  /// Pooled event state; recycled through `free_slots_`. The payload
  /// lives in `block` — a 64-byte arena allocation paired with the slot
  /// for the slot's whole lifetime, so payload addresses are stable even
  /// when the slot vector reallocates (the kernel invokes payloads in
  /// place, and an action may grow the pool mid-execution). Payloads past
  /// 64 bytes live at `heap_payload` instead (a per-event arena block of
  /// class `payload_class`, or — when the class is 0 — a plain
  /// operator-new block). `ops` is null iff the slot currently owns no
  /// payload.
  struct EventSlot {
    static constexpr std::size_t kInlineBytes = 64;

    const detail::PayloadOps* ops = nullptr;
    void* block = nullptr;
    void* heap_payload = nullptr;
    std::uint32_t payload_class = 0;
    std::uint64_t generation = 0;
    bool live = false;

    EventSlot() = default;
    EventSlot(const EventSlot&) = delete;
    EventSlot& operator=(const EventSlot&) = delete;
    // Pool growth relocates slot records; payloads stay put in their
    // arena blocks, so this is a plain pointer move.
    EventSlot(EventSlot&& other) noexcept
        : ops(other.ops),
          block(other.block),
          heap_payload(other.heap_payload),
          payload_class(other.payload_class),
          generation(other.generation),
          live(other.live) {
      other.ops = nullptr;
      other.block = nullptr;
      other.heap_payload = nullptr;
    }
    // Destroys a still-owned payload. Arena storage is not returned here
    // (no arena reference); ~Simulation destroys slots before the arena
    // member, which then releases their blocks wholesale.
    ~EventSlot() {
      if (ops == nullptr) return;
      ops->destroy(heap_payload != nullptr ? heap_payload : block);
      if (heap_payload != nullptr && payload_class == 0)
        ::operator delete(heap_payload);
    }
  };

  /// What the queue orders: one 128-bit integer per event, laid out as
  /// (time bits : 64 | seq : 40 | slot : 24). Simulated time is always
  /// >= 0, and non-negative IEEE-754 doubles order identically to their
  /// bit patterns, so a single unsigned compare is exactly the
  /// (time, seq, slot) event order.
  using QueueRecord = unsigned __int128;

  static QueueRecord pack(Time time, std::uint64_t seq_slot) noexcept;
  static constexpr unsigned kSlotBits = 24;
  static Time record_time(QueueRecord rec) noexcept {
    return std::bit_cast<Time>(static_cast<std::uint64_t>(rec >> 64));
  }
  static std::uint32_t record_slot(QueueRecord rec) noexcept {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(rec) &
                                      ((1u << kSlotBits) - 1));
  }

  std::uint32_t acquire_slot();
  EventHandle schedule_slot(Time at, std::uint32_t slot);
  void destroy_payload(EventSlot& s) noexcept;
  void release_slot(std::uint32_t slot) noexcept;
  void fire_slot(std::uint32_t slot);
  std::size_t run_batch();
  void purge_cancelled();
  bool slot_pending(std::uint32_t slot,
                    std::uint64_t generation) const noexcept;
  bool cancel_slot(std::uint32_t slot, std::uint64_t generation) noexcept;
  /// Releases every tombstone in heap_ and re-heapifies the survivors.
  void compact_queue() noexcept;
  void note_alloc_event() noexcept;
  /// Nonzero token identifying the calling thread (hash of thread::id).
  static std::size_t this_thread_token() noexcept {
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return h == 0 ? 1 : h;
  }
  /// Debug-asserts the LP-affinity rule documented above; a no-op when
  /// unbound or in release builds.
  void assert_owner_thread() const noexcept {
#ifndef NDEBUG
    const std::size_t owner = owner_thread_.load(std::memory_order_relaxed);
    assert((owner == 0 || owner == this_thread_token()) &&
           "Simulation accessed from a thread that does not own its LP "
           "(cancel/reschedule cross-LP events via ShardedSimulation::send)");
#endif
  }
  /// Fires every pending sampling boundary <= `upto`, advancing the clock
  /// to each boundary before invoking the hook.
  void emit_samples(Time upto);

  void heap_push(QueueRecord rec);
  void heap_pop_front() noexcept;
  /// Moves every record at the front timestamp into batch_, sorted by full
  /// record order (== scheduling order at equal time).
  void heap_extract_equal_run();

  // 4-ary min-heap with bottom-up ("hole-sinking") pop: half the levels of
  // a binary heap, children share a cache line, and the record type makes
  // every comparison a single wide integer compare. Measured ~2x faster
  // than std::push_heap/pop_heap over {double, u64} structs on 100k-event
  // queues.
  //
  // Member order matters: arena_ is declared before slots_ so that slot
  // destructors (which may run payload destructors living in arena
  // storage) execute while the arena is still alive.
  PayloadArena arena_;
  std::vector<QueueRecord> heap_;
  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Batched-dispatch scratch: the current equal-time run, reused across
  // batches (swapped out while executing so reentrant runs can't clobber
  // it).
  std::vector<QueueRecord> batch_;
  std::size_t live_ = 0;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t alloc_events_ = 0;
  // LP-affinity binding: 0 = unbound (any thread), else the owning
  // thread's token. Only consulted by debug asserts; relaxed atomics keep
  // bind/clear race-free across window hand-offs.
  std::atomic<std::size_t> owner_thread_{0};
  Observer* observer_ = nullptr;
  FaultHook* fault_hook_ = nullptr;
  SamplingHook* sampling_hook_ = nullptr;
  Time sample_interval_ = 0.0;
  Time next_sample_ = 0.0;
  bool stopped_ = false;
};

}  // namespace atlarge::sim
