#pragma once
// Single-swarm BitTorrent simulator (paper Section 6.1).
//
// The model is fluid/flow-level, the standard choice for swarm-scale P2P
// studies: rather than simulating piece exchange packet-by-packet, each
// epoch distributes the swarm's aggregate upload capacity across leechers.
// The model captures exactly the phenomena the paper's studies report:
//  * upload/download asymmetry (ADSL, study [62]): swarms become
//    upload-bound, so download pipes idle;
//  * seed/leecher dynamics: more seeds -> faster downloads;
//  * flashcrowds (study [66]): arrival surges depress per-peer rates;
//  * protocol efficiency: a piece-availability factor reduces usable
//    upload when the swarm is young (few distinct pieces available).

#include <cstdint>
#include <vector>

#include "atlarge/obs/digest.hpp"
#include "atlarge/stats/rng.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::fault {
class FaultPlan;
}

namespace atlarge::p2p {

struct SwarmConfig {
  double content_mb = 700.0;         // file size
  double seed_upload_mbps = 8.0;     // origin seed capacity
  double peer_upload_mbps = 1.0;     // leecher upload (ADSL: 1/8 of down)
  double peer_download_mbps = 8.0;   // leecher download cap
  double efficiency = 0.9;           // protocol efficiency eta in (0, 1]
  double seed_time_mean = 1800.0;    // post-completion seeding, exp-dist.
  double abort_rate = 0.0;           // per-second probability of abandoning
  int initial_seeds = 1;
  double epoch = 10.0;               // fluid integration step, s
  std::uint64_t seed = 1;
  /// Optional instrumentation plane (not owned, may be null): wraps the
  /// run in a "p2p.swarm" span, tracks seed/leecher census gauges, counts
  /// finished/aborted peers, and records a "p2p.download_time" registry
  /// digest. (The fluid model is not a DES, so no kernel observer or
  /// sampling hook is attached; instead Observability::sample_now is
  /// driven manually at each epoch boundary, so TimeSeries and SloMonitor
  /// planes still work.)
  obs::Observability* obs = nullptr;
  /// Optional fault plan (not owned, may be null). The swarm interprets
  /// kChurnSpike: at the event's time, floor(magnitude x leechers) of the
  /// newest leechers abandon the swarm at once (a correlated churn burst,
  /// e.g. an ISP outage). The fluid model has no DES kernel, so the plan
  /// is walked directly at epoch boundaries — the documented exception to
  /// the fault-hook route. A null or empty plan keeps behaviour
  /// byte-identical.
  const fault::FaultPlan* faults = nullptr;
};

/// Per-peer ground truth.
struct PeerOutcome {
  double arrival = 0.0;
  double completion = -1.0;  // < 0: never finished (aborted or cut off)
  double departure = -1.0;   // when it left the swarm (< 0: still present)
  bool finished = false;

  double download_time() const noexcept { return completion - arrival; }
};

/// One epoch snapshot of the swarm (the *true* state a perfect monitor
/// would see; biased monitors subsample this series).
struct SwarmSample {
  double time = 0.0;
  std::uint32_t seeds = 0;
  std::uint32_t leechers = 0;
  double per_leecher_mbps = 0.0;  // current fluid download rate
};

struct SwarmResult {
  std::vector<PeerOutcome> peers;
  std::vector<SwarmSample> series;
  double mean_download_time = 0.0;    // finished peers only
  double median_download_time = 0.0;
  std::size_t finished = 0;
  std::size_t aborted = 0;
  std::uint32_t peak_swarm_size = 0;
  /// Leechers expelled by churn-spike fault events (0 without a plan).
  std::size_t churned = 0;
  /// Mergeable percentile digest over finished-peer download times (same
  /// population as the exact mean/median fields above).
  obs::Digest download_digest;
};

/// Simulates one swarm: peers arrive at the given times (nondecreasing),
/// download under the fluid model, seed, and depart. Runs until `horizon`
/// or swarm drain, whichever is first. Deterministic for fixed config.
SwarmResult simulate_swarm(const SwarmConfig& config,
                           const std::vector<double>& arrivals,
                           double horizon);

/// Pull-source of peer arrival times in nondecreasing order — the seam
/// trace-driven replays (trace::catalog) plug into.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  /// Fills `out` with the next arrival time; returns false at end.
  virtual bool next(double& out) = 0;
};

/// Trace-driven variant. Note the honest caveat: the fluid model keeps
/// per-peer state for every arrival (peers are the *output*), so unlike
/// the serverless streaming path this adapter materializes the arrival
/// vector — memory is O(peers) either way; what stays bounded is the
/// upstream trace reader (one chunk resident).
SwarmResult simulate_swarm(const SwarmConfig& config, ArrivalSource& source,
                           double horizon);

/// Poisson arrival times with the given rate over [0, horizon].
std::vector<double> poisson_arrivals(double rate, double horizon,
                                     atlarge::stats::Rng& rng);

/// Flashcrowd arrival times: base Poisson plus a surge of
/// `surge_peers` extra arrivals spread exponentially after `surge_start`
/// with mean gap `surge_mean_gap` — the empirical flashcrowd shape of the
/// paper's BitTorrent studies (sharp onset, exponential decay).
std::vector<double> flashcrowd_arrivals(double base_rate, double horizon,
                                        std::size_t surge_peers,
                                        double surge_start,
                                        double surge_mean_gap,
                                        atlarge::stats::Rng& rng);

}  // namespace atlarge::p2p
