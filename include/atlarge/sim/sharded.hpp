#pragma once
// Sharded parallel discrete-event simulation: one simulation partitioned
// into logical processes (LPs), each a private sim::Simulation kernel,
// synchronized by conservative lookahead windows in the
// Chandy-Misra-Bryant tradition and executed on sim::ThreadPool workers
// (DESIGN.md section 12).
//
// Model
//  * Each LP is a full sim::Simulation — event heap, arena, observer,
//    sampling hook, fault hooks all work per-LP unchanged.
//  * Cross-LP interaction goes exclusively through send(): a closure to
//    execute on the destination LP at a future timestamp. Sends are
//    buffered in per-source outboxes during a window and delivered at the
//    barrier, so LPs never touch each other's queues concurrently.
//  * Lookahead L is the model's minimum cross-LP latency (MMOG: the time
//    an avatar needs to cross an interest radius into another zone; P2P:
//    the tracker announce interval). An event at time t may only send at
//    timestamps >= t + L.
//
// Window algorithm (the conservative synchronization)
//  1. floor  = min over LPs of their next event time.
//  2. window = [floor, floor + L): every LP executes its local events in
//     that half-open interval in parallel. Safe because any message such
//     an event emits lands at >= floor + L, strictly after the window —
//     no LP can receive anything that should have preempted work it is
//     doing now.
//  3. barrier, then deliver all buffered sends (globally sorted, see
//     below) and repeat. L == 0 degenerates to one timestamp per window:
//     still correct, just serialized per tick — pick models with real
//     latency floors to shard (DESIGN.md lists when not to shard).
//
// Determinism contract (kept from the kernel)
//  * Per-LP event orderings are byte-identical across thread counts for a
//    fixed shard count: window bounds depend only on event timestamps,
//    and barrier delivery sorts messages by (time, key, src, seq) — a
//    total order independent of which worker ran what when.
//  * Shard-count invariance of *results* is the engine's contract, like
//    ThreadPool::parallel_for: engines give each entity its own RNG
//    stream and fold outcomes into order-independent aggregates (sums,
//    counters, log-bucket digests). The `key` argument of send() is the
//    engine's entity id precisely so delivery order ties break the same
//    way no matter how entities are spread over LPs.
//
// Thread affinity: the pool has min(threads, shards) lanes, LP i always
// runs on lane (i mod lanes), and ThreadPool::run_lanes always runs a
// lane on the same thread (lane 0 on the coordinator, lane L on worker
// L-1), so an LP's queue and arena stay hot in one core's cache across
// windows. While a lane executes an LP window it binds the LP's owner
// thread (Simulation::bind_owner_thread), so debug builds assert on
// cross-LP handle cancels instead of racing.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "atlarge/sim/simulation.hpp"
#include "atlarge/sim/thread_pool.hpp"

namespace atlarge::sim {

struct ShardOptions {
  /// Number of logical processes. 1 (the default) keeps today's
  /// single-queue behaviour: one LP, windows collapse to plain runs.
  std::size_t shards = 1;
  /// Worker parallelism: the ThreadPool gets min(threads, shards) lanes
  /// (1 = everything on the caller).
  std::size_t threads = 1;
  /// Conservative lookahead L in simulated time: the minimum delay of any
  /// cross-LP send. 0 is always safe but serializes one timestamp per
  /// window.
  double lookahead = 0.0;
};

class ShardedSimulation {
 public:
  explicit ShardedSimulation(const ShardOptions& options);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  std::size_t shards() const noexcept { return lps_.size(); }
  double lookahead() const noexcept { return lookahead_; }

  /// The LP's kernel: schedule local events, attach observers, sampling
  /// hooks, or a fault::Injector per LP. Outside run_until/run only, or
  /// from code currently executing on that LP.
  Simulation& lp(std::size_t index) { return lps_[index]->sim; }

  /// Cross-LP message: execute `fn` on LP `dst` at time `at`. Must be
  /// called either outside a run (setup) or from code executing on LP
  /// `src` during a window; `at` must be >= sender time + lookahead().
  /// Delivery happens at the next window barrier: all buffered messages
  /// are sorted by (at, key, src, seq) and scheduled in that order, so
  /// the destination's event sequence is reproducible. `key` is the
  /// engine's entity id (avatar, peer, swarm) — the shard-layout-stable
  /// part of the tie-break.
  void send(std::size_t src, std::size_t dst, Time at, std::uint64_t key,
            std::function<void()> fn);

  /// Runs lookahead windows until every LP's next event is past `until`
  /// (then advances each LP's clock to `until`, emitting any sampling
  /// tails). Returns the number of events executed across all LPs.
  /// If events throw, every LP still finishes the window, and once all
  /// lanes are at the barrier the exception of the lowest-numbered LP
  /// that threw propagates: the same exception and the same LP states at
  /// any thread count (DESIGN.md section 12).
  std::size_t run_until(Time until);

  /// Runs until every LP queue and every mailbox drains.
  std::size_t run();

  /// Lookahead windows executed so far (a measure of barrier overhead).
  std::uint64_t windows() const noexcept { return windows_; }
  /// Cross-LP messages delivered so far.
  std::uint64_t messages() const noexcept { return messages_; }

 private:
  struct Message {
    Time at = 0.0;
    std::uint64_t key = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t seq = 0;  // per-source send counter
    std::function<void()> fn;
  };

  // Sized and aligned so two lanes never share a cache line through
  // adjacent LPs' outboxes.
  struct alignas(64) Lp {
    Simulation sim;
    std::vector<Message> outbox;  // appended only by the lane running it
    std::uint64_t next_send_seq = 0;
    std::exception_ptr error;  // what its window threw; cleared at barrier
  };

  void deliver_mailboxes();
  std::size_t run_window(Time window_until);

  std::vector<std::unique_ptr<Lp>> lps_;
  ThreadPool pool_;
  double lookahead_ = 0.0;
  std::vector<std::size_t> lane_executed_;  // per-lane, summed at barrier
  std::vector<Message> delivery_;           // reused barrier scratch
  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace atlarge::sim
