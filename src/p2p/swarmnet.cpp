#include "atlarge/p2p/swarmnet.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "atlarge/fault/fault.hpp"
#include "atlarge/fault/injector.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/stats/rng.hpp"
#include "fluid.hpp"

namespace atlarge::p2p {
namespace {

using detail::kMbPerMbpsSecond;
constexpr std::uint64_t kPeerMix = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kSpikeMix = 0xc2b2ae3d27d4eb4fULL;

enum class Phase : std::uint8_t { kLeeching, kSeeding };

struct Peer {
  std::uint64_t id = 0;
  double arrival = 0.0;
  double downloaded_mb = 0.0;
  double seed_until = 0.0;
  Phase phase = Phase::kLeeching;
  stats::Rng rng{0};
};

/// Tracker capacity grant, valid for one announce interval strictly
/// after its arrival (the strict-past read rule).
struct Grant {
  double at = -1.0;
  double mbps = 0.0;
};

struct NetSwarm {
  // Active peers only (swap-removed on departure), so an epoch costs
  // O(active), not O(ever-arrived) — that is what lets a million-peer
  // flashcrowd drain in minutes.
  std::vector<Peer> peers;
  Grant grant_cur;
  Grant grant_prev;
  std::uint64_t finished = 0;
  std::uint64_t aborted = 0;
  std::uint64_t churned = 0;
  std::uint64_t spikes_seen = 0;
  std::uint32_t peak = 0;
  obs::Digest downloads;
  std::uint64_t download_us = 0;
};

struct TrackerRow {
  double at = -1.0;  // arrival time of the latest announcement
  std::uint32_t leechers = 0;
  std::uint32_t seeds = 0;
};

struct Engine {
  const SwarmNetConfig* config = nullptr;
  sim::ShardedSimulation* sharded = nullptr;
  std::vector<NetSwarm> swarms;
  std::vector<TrackerRow> rows;  // tracker state, lives on LP 0
  std::uint64_t announcements = 0;
  std::uint64_t grants = 0;
  double interval = 0.0;        // announce interval, multiple of epoch
  std::size_t announce_every = 1;
  double abort_p = 0.0;         // per-epoch abort probability

  std::size_t lp_of(std::size_t swarm) const noexcept {
    return swarm % sharded->shards();
  }

  // Message-key spaces: announcements use the swarm id, grants are offset
  // past them — distinct entities, distinct tie-break keys.
  std::uint64_t grant_key(std::size_t swarm) const noexcept {
    return static_cast<std::uint64_t>(config->swarms) + swarm;
  }

  void join(std::size_t s, std::uint64_t id, double now) {
    Peer p;
    p.id = id;
    p.arrival = now;
    p.rng = stats::Rng(config->seed ^ (id * kPeerMix));
    swarms[s].peers.push_back(std::move(p));
  }

  /// The grant effective at strictly-past time `now` (and not expired).
  double grant_mbps(const NetSwarm& sw, double now) const noexcept {
    const Grant& g = sw.grant_cur.at < now ? sw.grant_cur : sw.grant_prev;
    if (g.at < 0.0 || g.at >= now || now > g.at + interval) return 0.0;
    return g.mbps;
  }

  void epoch(std::size_t s, std::size_t k) {
    NetSwarm& sw = swarms[s];
    const double now = static_cast<double>(k) * config->epoch;
    const double next = now + config->epoch;

    // Census over strictly-past arrivals: a peer joining exactly at `now`
    // is invisible this epoch no matter the tied-event execution order.
    std::uint32_t leechers = 0;
    std::uint32_t peer_seeds = 0;
    double progress = 0.0;
    for (const Peer& p : sw.peers) {
      if (p.arrival >= now) continue;
      if (p.phase == Phase::kLeeching) {
        ++leechers;
        progress += p.downloaded_mb / config->content_mb;
      } else {
        ++peer_seeds;
      }
    }
    const auto seeds = static_cast<std::uint32_t>(
        peer_seeds + static_cast<std::uint32_t>(config->initial_seeds));
    sw.peak = std::max(sw.peak, leechers + seeds);

    if (k % announce_every == 0) {
      // The announce interval IS the lookahead: the report lands one
      // interval ahead, on the tracker's LP.
      sharded->send(lp_of(s), 0, now + interval, s,
                    [this, s, now, leechers, seeds] {
                      rows[s] = TrackerRow{now + interval, leechers, seeds};
                      ++announcements;
                    });
    }

    const double per_leecher_mbps = detail::fluid_rate(
        *config, leechers, peer_seeds, progress, grant_mbps(sw, now));

    for (std::size_t i = 0; i < sw.peers.size();) {
      Peer& p = sw.peers[i];
      if (p.arrival >= now) {
        ++i;
        continue;
      }
      if (p.phase == Phase::kLeeching) {
        if (abort_p > 0.0 && p.rng.bernoulli(abort_p)) {
          ++sw.aborted;
          sw.peers[i] = std::move(sw.peers.back());
          sw.peers.pop_back();
          continue;
        }
        p.downloaded_mb += per_leecher_mbps * config->epoch * kMbPerMbpsSecond;
        if (p.downloaded_mb >= config->content_mb) {
          p.phase = Phase::kSeeding;
          p.seed_until =
              next + p.rng.exponential(1.0 / config->seed_time_mean);
          const double dl = next - p.arrival;
          ++sw.finished;
          sw.downloads.add(dl);
          sw.download_us += static_cast<std::uint64_t>(dl * 1e6 + 0.5);
        }
      } else if (now >= p.seed_until) {
        sw.peers[i] = std::move(sw.peers.back());
        sw.peers.pop_back();
        continue;
      }
      ++i;
    }

    if (next <= config->horizon) {
      sharded->lp(lp_of(s)).schedule_at(next,
                                        [this, s, k] { epoch(s, k + 1); });
    }
  }

  // Tracker round at G: reads only announcements that arrived strictly
  // before G, pools the upload of swarms with no leechers left, and
  // grants it to under-seeded busy swarms proportionally to their need.
  void tracker_round(double g) {
    double donor_mbps = 0.0;
    double needy_leechers = 0.0;
    for (const TrackerRow& row : rows) {
      if (row.at < 0.0 || row.at >= g) continue;
      if (row.leechers == 0) {
        donor_mbps += static_cast<double>(row.seeds) *
                      config->peer_upload_mbps;
      } else if (row.seeds < row.leechers) {
        needy_leechers += static_cast<double>(row.leechers);
      }
    }
    if (config->cross_seed && donor_mbps > 0.0 && needy_leechers > 0.0) {
      for (std::size_t s = 0; s < rows.size(); ++s) {
        const TrackerRow& row = rows[s];
        if (row.at < 0.0 || row.at >= g) continue;
        if (row.leechers == 0 || row.seeds >= row.leechers) continue;
        const double mbps =
            donor_mbps * static_cast<double>(row.leechers) / needy_leechers;
        ++grants;
        sharded->send(0, lp_of(s), g + interval, grant_key(s),
                      [this, s, g, mbps] {
                        NetSwarm& sw = swarms[s];
                        sw.grant_prev = sw.grant_cur;
                        sw.grant_cur = Grant{g + interval, mbps};
                      });
      }
    }
    const double next = g + interval;
    if (next <= config->horizon)
      sharded->lp(0).schedule_at(next, [this, next] { tracker_round(next); });
  }

  // Churn spike: kick leeching peers present strictly before the spike,
  // each by an independent per-peer hash draw (layout-invariant).
  void churn(std::size_t s, double at, double magnitude) {
    NetSwarm& sw = swarms[s];
    const std::uint64_t spike = sw.spikes_seen++;
    const std::uint64_t base =
        config->seed ^
        ((static_cast<std::uint64_t>(s) << 32 | spike) * kSpikeMix);
    for (std::size_t i = 0; i < sw.peers.size();) {
      Peer& p = sw.peers[i];
      if (p.phase == Phase::kLeeching && p.arrival < at &&
          stats::Rng(base ^ (p.id * kPeerMix)).uniform() < magnitude) {
        ++sw.churned;
        sw.peers[i] = std::move(sw.peers.back());
        sw.peers.pop_back();
        continue;
      }
      ++i;
    }
  }
};

}  // namespace

std::vector<PeerArrival> flashcrowd_net_arrivals(std::size_t peers,
                                                 std::size_t swarms,
                                                 double horizon,
                                                 double surge_start,
                                                 double surge_fraction,
                                                 std::uint64_t seed) {
  std::vector<PeerArrival> arrivals;
  arrivals.reserve(peers);
  const std::size_t surge =
      static_cast<std::size_t>(surge_fraction * static_cast<double>(peers));
  const double decay_mean = std::max(1.0, (horizon - surge_start) / 8.0);
  for (std::size_t i = 0; i < peers; ++i) {
    stats::Rng rng(seed ^ (static_cast<std::uint64_t>(i + 1) * kPeerMix));
    PeerArrival a;
    a.peer = static_cast<std::uint64_t>(i);
    if (i < surge) {
      // The flashcrowd: sharp onset into one swarm, exponential decay.
      a.time = surge_start + rng.exponential(1.0 / decay_mean);
      a.swarm = 0;
    } else {
      a.time = rng.uniform(0.0, horizon);
      a.swarm = static_cast<std::uint32_t>(i % std::max<std::size_t>(
                                                   1, swarms));
    }
    if (a.time < horizon) arrivals.push_back(a);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const PeerArrival& x, const PeerArrival& y) {
              return x.time != y.time ? x.time < y.time : x.peer < y.peer;
            });
  return arrivals;
}

SwarmNetResult simulate_swarm_network(
    const SwarmNetConfig& config, const std::vector<PeerArrival>& arrivals) {
  Engine engine;
  engine.config = &config;
  engine.announce_every = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config.announce_interval / config.epoch)));
  engine.interval =
      static_cast<double>(engine.announce_every) * config.epoch;
  engine.abort_p = config.abort_rate > 0.0
                       ? 1.0 - std::exp(-config.abort_rate * config.epoch)
                       : 0.0;

  sim::ShardOptions shard = config.shard;
  shard.shards = std::min(std::max<std::size_t>(1, shard.shards),
                          std::max<std::size_t>(1, config.swarms));
  shard.lookahead = engine.interval;  // derived, not user-set
  sim::ShardedSimulation sharded(shard);
  engine.sharded = &sharded;
  engine.swarms.resize(std::max<std::size_t>(1, config.swarms));
  engine.rows.resize(engine.swarms.size());

  obs::Observability* const plane = config.obs;
  if (plane != nullptr) plane->tracer.begin("p2p.swarmnet", "p2p", 0.0);

  // Per-LP injectors, attached before any peer or epoch event exists, so
  // spikes carry the earliest sequence numbers at tied timestamps on
  // every layout.
  std::vector<std::unique_ptr<fault::Injector>> injectors;
  if (config.faults != nullptr && !config.faults->empty()) {
    injectors.reserve(sharded.shards());
    for (std::size_t l = 0; l < sharded.shards(); ++l) {
      auto injector =
          std::make_unique<fault::Injector>(*config.faults, nullptr);
      injector->on_kind(fault::FaultKind::kChurnSpike,
                        [&engine, l](const fault::FaultEvent& e) {
                          const std::size_t s =
                              e.target % engine.swarms.size();
                          if (engine.lp_of(s) != l) return;
                          engine.churn(s, e.time, e.magnitude);
                        });
      sharded.lp(l).set_fault_hook(injector.get());
      injectors.push_back(std::move(injector));
    }
  }

  // Epoch chains and the tracker round chain, then the entry trace — all
  // through the sorted-mailbox path, so every layout schedules them in
  // the same relative order.
  for (std::size_t s = 0; s < engine.swarms.size(); ++s) {
    sharded.send(engine.lp_of(s), engine.lp_of(s), 0.0, s,
                 [&engine, s] { engine.epoch(s, 0); });
  }
  if (engine.interval <= config.horizon) {
    const double first = engine.interval;
    sharded.send(0, 0, first, engine.grant_key(engine.swarms.size()),
                 [&engine, first] { engine.tracker_round(first); });
  }
  for (const PeerArrival& a : arrivals) {
    const std::size_t s = a.swarm % engine.swarms.size();
    const std::uint64_t id = a.peer;
    const double at = a.time;
    sharded.send(engine.lp_of(s), engine.lp_of(s), at,
                 engine.grant_key(engine.swarms.size()) + 1 + id,
                 [&engine, s, id, at] { engine.join(s, id, at); });
  }

  sharded.run_until(config.horizon);

  SwarmNetResult result;
  result.peak_swarm.reserve(engine.swarms.size());
  for (const NetSwarm& sw : engine.swarms) {
    result.finished += sw.finished;
    result.aborted += sw.aborted;
    result.churned += sw.churned;
    for (const Peer& p : sw.peers) {
      if (p.phase == Phase::kLeeching)
        ++result.residual_leechers;
      else
        ++result.residual_seeds;
    }
    result.peak_swarm.push_back(sw.peak);
    result.download_digest.merge(sw.downloads);
    result.download_seconds_x1e6 += sw.download_us;
  }
  result.announcements = engine.announcements;
  result.grants = engine.grants;
  result.windows = sharded.windows();
  result.messages = sharded.messages();

  if (plane != nullptr) {
    plane->metrics.counter("p2p.net.finished").add(result.finished);
    plane->metrics.counter("p2p.net.aborted").add(result.aborted);
    plane->metrics.counter("p2p.net.churned").add(result.churned);
    plane->metrics.counter("p2p.net.announcements").add(result.announcements);
    plane->metrics.counter("p2p.net.grants").add(result.grants);
    for (std::size_t l = 0; l < sharded.shards(); ++l) {
      plane->tracer.begin("p2p.swarmnet.lp", "p2p", 0.0);
      plane->tracer.end("p2p.swarmnet.lp", "p2p", config.horizon);
    }
    plane->tracer.end("p2p.swarmnet", "p2p", config.horizon);
  }
  return result;
}

}  // namespace atlarge::p2p
