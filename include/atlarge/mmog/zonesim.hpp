#pragma once
// Sharded MMOG world simulation: the zones of interest management
// (interest.hpp) turned into logical processes of a parallel DES
// (sim/sharded.hpp), so one million-avatar world uses every core.
//
// Model: a ring of zones hosts avatars. Each avatar acts on its own
// exponential clock (think time); an action either plays in place or
// migrates the avatar to a neighbouring zone. Crossing a zone border
// takes `crossing_time` seconds — the time to traverse the interest
// radius between adjacent zones — which is exactly the conservative
// lookahead of the sharded run: a migration sent at time t arrives at
// t + crossing_time, so zones can simulate `crossing_time` of wall-clock
// game time independently before they must exchange avatars.
//
// Determinism: every avatar owns a private Rng seeded from (seed, avatar
// id), so its action times, migration path, and session length are a pure
// function of the config — independent of shard layout and thread count.
// Aggregates are order-independent (integer counters, fixed-point session
// sum, digest bucket counts), so a run is invariant across
// shards x threads; the property tests pin this.
//
// Faults: a FaultPlan's kChurnSpike events (target = zone index) kick a
// `magnitude` fraction of the zone's residents at the spike time. Each LP
// carries its own fault::Injector over the shared plan and handles only
// the zones it hosts; injector events are attached before any avatar
// spawns, so at tied timestamps a spike always fires before the activity
// it preempts — on every shard layout. The kick decision is a per-avatar
// hash draw, not a stream draw, so it too is layout-invariant.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "atlarge/obs/digest.hpp"
#include "atlarge/sim/sharded.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::fault {
class FaultPlan;
class Injector;
}

namespace atlarge::mmog {

/// One avatar entering the world (plain struct: the trace layer sits
/// above mmog, so trace-driven replays adapt their events to this).
struct ZoneArrival {
  double time = 0.0;
  std::uint64_t avatar = 0;  // unique id; also the cross-LP ordering key
  std::uint32_t zone = 0;
};

struct ZoneSimConfig {
  std::size_t zones = 8;         // ring topology
  double act_mean = 30.0;        // mean think time between actions, s
  double migrate_prob = 0.05;    // per-action border-crossing probability
  double crossing_time = 5.0;    // interest-radius traversal = lookahead, s
  double session_mean = 3600.0;  // mean session length, s
  double horizon = 14'400.0;
  std::uint64_t seed = 1;
  /// Sharding knob. Defaults to a single LP on the caller thread — the
  /// exact serial semantics. `shard.lookahead` is ignored: the engine
  /// derives it from `crossing_time` (the model's real latency floor).
  sim::ShardOptions shard;
  /// Optional churn plan (kChurnSpike, target = zone). Not owned.
  const fault::FaultPlan* faults = nullptr;
  /// Optional instrumentation plane (not owned): wraps the run in an
  /// "mmog.zonesim" span, mirrors the result counters, and merges per-LP
  /// contributions in LP-id order.
  obs::Observability* obs = nullptr;
};

struct ZoneSimResult {
  std::uint64_t actions = 0;     // avatar actions executed
  std::uint64_t migrations = 0;  // border crossings initiated
  std::uint64_t arrivals = 0;    // border crossings completed
  std::uint64_t departures = 0;  // natural session ends
  std::uint64_t churned = 0;     // kicked by churn spikes
  /// Avatars resident in a zone at the horizon (crossers still in flight
  /// are `migrations - arrivals` on top of this).
  std::uint64_t residents = 0;
  std::vector<std::uint64_t> zone_actions;      // per zone
  std::vector<std::uint32_t> final_population;  // per zone
  /// Session lengths of departed avatars. Bucket counts / min / max /
  /// quantiles are shard-layout invariant; `sum()` rounds per IEEE
  /// addition order (use session_seconds_x1e6 for exact totals).
  obs::Digest session_digest;
  /// Exact fixed-point sum of departed session lengths (microseconds):
  /// integer addition commutes, so this is bit-equal across layouts.
  std::uint64_t session_seconds_x1e6 = 0;
  /// Logins (spawns or completed crossings) that found their zone at
  /// capacity and waited in the FIFO login queue (0 without capacity
  /// caps). Avatars still queued at the horizon are neither residents nor
  /// departures.
  std::uint64_t queued_logins = 0;
  // Sharded-run diagnostics (windows depends on shards/lookahead, not a
  // model output; messages == migrations + initial spawns by design).
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
};

/// Deterministic synthetic entry trace: `avatars` avatars, spawn times
/// uniform in [0, spawn_window), zones assigned round-robin by id hash.
std::vector<ZoneArrival> synthetic_zone_arrivals(std::size_t avatars,
                                                 std::size_t zones,
                                                 double spawn_window,
                                                 std::uint64_t seed);

/// Runs the world to config.horizon. Results are invariant across
/// config.shard.{shards,threads} (see the determinism notes above).
ZoneSimResult simulate_zones(const ZoneSimConfig& config,
                             const std::vector<ZoneArrival>& arrivals);

namespace detail {
struct ZoneEngine;
}

/// Composable form of the zone world: the same engine simulate_zones
/// runs, but over an externally owned sharded kernel so the world can
/// share a clock with other domain simulators (eco::run_ecosystem). Zones map
/// to LPs `lp_base + zone % lp_count`; `config.shard` is ignored and the
/// kernel's lookahead must not exceed config.crossing_time (migrations
/// ride the lookahead window exactly as in standalone runs).
///
/// Capacity binding: each zone optionally carries a login capacity (the
/// eco autoscale binding). A spawn or completed crossing that finds its
/// zone full waits in a per-zone FIFO login queue and is admitted when a
/// departure, churn kick, migration, or capacity raise frees a slot. The
/// default capacity is unlimited, which keeps per-zone event streams
/// byte-identical to simulate_zones.
class ZoneWorld {
 public:
  /// All referenced objects must outlive the ZoneWorld. Requires
  /// lp_base + lp_count <= sharded.shards() and lp_count >= 1.
  ZoneWorld(const ZoneSimConfig& config,
            const std::vector<ZoneArrival>& arrivals,
            sim::ShardedSimulation& sharded, std::size_t lp_base,
            std::size_t lp_count);
  ~ZoneWorld();
  ZoneWorld(const ZoneWorld&) = delete;
  ZoneWorld& operator=(const ZoneWorld&) = delete;

  /// Attaches per-LP churn injectors (when config.faults is set) and
  /// seeds the arrival trace through the sorted-mailbox path. Call once,
  /// before the kernel runs.
  void prepare();

  /// LP hosting `zone` (lp_base + zone % lp_count).
  std::size_t lp_of(std::size_t zone) const;
  /// Current residents of `zone`. Read only from the zone's own LP.
  std::size_t population(std::size_t zone) const;
  /// Logins currently waiting in `zone`'s queue. Zone's own LP only.
  std::size_t queue_length(std::size_t zone) const;
  /// Sets `zone`'s login capacity and admits queued logins into freed
  /// slots. Call from an event on the zone's own LP (eco routes grants
  /// through ShardedSimulation::send), or before the kernel runs.
  void set_capacity(std::size_t zone, std::uint32_t capacity);

  /// Folds per-zone state into a result. windows/messages stay 0 — the
  /// shared kernel's counters belong to the composition layer.
  ZoneSimResult collect() const;

 private:
  std::unique_ptr<detail::ZoneEngine> engine_;
  std::vector<std::unique_ptr<fault::Injector>> injectors_;
  const std::vector<ZoneArrival>* arrivals_ = nullptr;
};

}  // namespace atlarge::mmog
