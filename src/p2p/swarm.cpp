#include "atlarge/p2p/swarm.hpp"

#include <algorithm>
#include <cmath>

#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/stats/descriptive.hpp"

namespace atlarge::p2p {
namespace {

constexpr double kMbPerMbpsSecond = 1.0 / 8.0;  // Mbps * s -> MB

enum class PeerPhase : std::uint8_t { kLeeching, kSeeding, kGone };

struct PeerState {
  PeerPhase phase = PeerPhase::kLeeching;
  double downloaded_mb = 0.0;
  double seed_until = 0.0;
};

}  // namespace

SwarmResult simulate_swarm(const SwarmConfig& config,
                           const std::vector<double>& arrivals,
                           double horizon) {
  SwarmResult result;
  result.peers.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    result.peers[i].arrival = arrivals[i];
  // One sample per epoch boundary: pre-size so the epoch loop appends
  // without reallocating mid-run.
  result.series.reserve(
      static_cast<std::size_t>(horizon / config.epoch) + 2);

  std::vector<PeerState> state(arrivals.size());
  stats::Rng rng(config.seed);
  std::size_t next_arrival = 0;

  // Instrumentation plane; handles resolved once, outside the epoch loop.
  obs::Observability* const plane = config.obs;
  obs::Counter* finished_ctr = nullptr;
  obs::Counter* aborted_ctr = nullptr;
  obs::Gauge* seeds_gauge = nullptr;
  obs::Gauge* leechers_gauge = nullptr;
  obs::Digest* dl_dig = nullptr;
  double last_now = 0.0;
  if (plane != nullptr) {
    finished_ctr = &plane->metrics.counter("p2p.finished");
    aborted_ctr = &plane->metrics.counter("p2p.aborted");
    seeds_gauge = &plane->metrics.gauge("p2p.seeds");
    leechers_gauge = &plane->metrics.gauge("p2p.leechers");
    dl_dig = &plane->metrics.digest("p2p.download_time");
    plane->tracer.begin("p2p.swarm", "p2p", 0.0);
  }

  // Fault plan cursor: the fluid model has no DES kernel, so churn events
  // are applied directly at the first epoch boundary at/after their time
  // (the documented exception to the fault-hook route).
  const bool faulted =
      config.faults != nullptr && !config.faults->empty();
  std::size_t next_fault = 0;

  for (double now = 0.0; now < horizon; now += config.epoch) {
    last_now = now;
    // Admit arrivals.
    while (next_arrival < arrivals.size() && arrivals[next_arrival] <= now)
      ++next_arrival;

    // Apply due churn spikes: the newest floor(magnitude x leechers)
    // leechers abandon the swarm at once (a correlated burst).
    if (faulted) {
      const auto& events = config.faults->events();
      while (next_fault < events.size() && events[next_fault].time <= now) {
        const fault::FaultEvent& e = events[next_fault];
        ++next_fault;
        if (e.kind != fault::FaultKind::kChurnSpike) continue;
        std::uint32_t leeching = 0;
        for (std::size_t i = 0; i < next_arrival; ++i)
          if (state[i].phase == PeerPhase::kLeeching) ++leeching;
        auto kick = static_cast<std::uint32_t>(
            std::floor(e.magnitude * static_cast<double>(leeching)));
        if (plane != nullptr) {
          plane->metrics.counter("fault.injected").add(1);
          plane->metrics.counter("fault.injected.churn_spike").add(1);
          plane->tracer.instant(fault::span_name(e.kind), "fault", now);
        }
        for (std::size_t i = next_arrival; i-- > 0 && kick > 0;) {
          if (state[i].phase != PeerPhase::kLeeching) continue;
          state[i].phase = PeerPhase::kGone;
          result.peers[i].departure = now;
          ++result.churned;
          --kick;
        }
      }
    }

    // Census.
    std::uint32_t leechers = 0;
    std::uint32_t peer_seeds = 0;
    for (std::size_t i = 0; i < next_arrival; ++i) {
      switch (state[i].phase) {
        case PeerPhase::kLeeching: ++leechers; break;
        case PeerPhase::kSeeding: ++peer_seeds; break;
        case PeerPhase::kGone: break;
      }
    }
    const std::uint32_t seeds =
        peer_seeds + static_cast<std::uint32_t>(config.initial_seeds);
    const std::uint32_t swarm = leechers + seeds;
    result.peak_swarm_size = std::max(result.peak_swarm_size, swarm);

    double per_leecher_mbps = 0.0;
    if (leechers > 0) {
      // Piece availability: young swarms (few seeds relative to leechers)
      // cannot use all leecher upload because rare pieces bottleneck
      // exchange. availability -> 1 as seeds or progress grow.
      double mean_progress = 0.0;
      for (std::size_t i = 0; i < next_arrival; ++i) {
        if (state[i].phase == PeerPhase::kLeeching)
          mean_progress += state[i].downloaded_mb / config.content_mb;
      }
      mean_progress /= leechers;
      const double availability = std::min(
          1.0, (static_cast<double>(seeds) + mean_progress * leechers) /
                   leechers);

      const double upload_total =
          static_cast<double>(config.initial_seeds) * config.seed_upload_mbps +
          static_cast<double>(peer_seeds) * config.peer_upload_mbps +
          static_cast<double>(leechers) * config.peer_upload_mbps *
              availability;
      const double usable = upload_total * config.efficiency;
      per_leecher_mbps =
          std::min(config.peer_download_mbps, usable / leechers);
    }

    result.series.push_back(
        SwarmSample{now, seeds, leechers, per_leecher_mbps});
    if (plane != nullptr) {
      seeds_gauge->set(static_cast<double>(seeds));
      leechers_gauge->set(static_cast<double>(leechers));
      // No DES kernel here: drive the continuous-telemetry plane by hand
      // so TimeSeries rows and SLO windows advance each epoch.
      plane->sample_now(now);
    }

    // Integrate one epoch.
    for (std::size_t i = 0; i < next_arrival; ++i) {
      auto& ps = state[i];
      auto& out = result.peers[i];
      switch (ps.phase) {
        case PeerPhase::kLeeching: {
          if (config.abort_rate > 0.0 &&
              rng.bernoulli(1.0 - std::exp(-config.abort_rate *
                                           config.epoch))) {
            ps.phase = PeerPhase::kGone;
            out.departure = now;
            ++result.aborted;
            if (aborted_ctr != nullptr) aborted_ctr->add(1);
            break;
          }
          ps.downloaded_mb +=
              per_leecher_mbps * config.epoch * kMbPerMbpsSecond;
          if (ps.downloaded_mb >= config.content_mb) {
            ps.phase = PeerPhase::kSeeding;
            out.finished = true;
            out.completion = now + config.epoch;
            ps.seed_until =
                out.completion + rng.exponential(1.0 / config.seed_time_mean);
            ++result.finished;
            if (plane != nullptr) {
              finished_ctr->add(1);
              dl_dig->add(out.download_time());
            }
          }
          break;
        }
        case PeerPhase::kSeeding: {
          if (now >= ps.seed_until) {
            ps.phase = PeerPhase::kGone;
            out.departure = now;
          }
          break;
        }
        case PeerPhase::kGone:
          break;
      }
    }

    // Early drain: all known peers gone and no arrivals left.
    if (next_arrival == arrivals.size()) {
      const bool active = std::any_of(
          state.begin(), state.begin() + static_cast<long>(next_arrival),
          [](const PeerState& p) { return p.phase != PeerPhase::kGone; });
      if (!active) break;
    }
  }

  std::vector<double> times;
  times.reserve(result.peers.size());
  for (const auto& p : result.peers) {
    if (p.finished) times.push_back(p.download_time());
  }
  result.mean_download_time = stats::mean(times);
  result.median_download_time = stats::quantile(times, 0.5);
  for (const double t : times) result.download_digest.add(t);
  if (plane != nullptr)
    plane->tracer.end("p2p.swarm", "p2p", last_now + config.epoch);
  return result;
}

SwarmResult simulate_swarm(const SwarmConfig& config, ArrivalSource& source,
                           double horizon) {
  // Materializing adapter (see the header caveat): the fluid model's state
  // and outputs are O(peers) regardless, so nothing is gained by lazy
  // arrival consumption — only the upstream trace reader's residency
  // matters, and that stays chunk-bounded.
  std::vector<double> arrivals;
  double t = 0.0;
  while (source.next(t)) arrivals.push_back(t);
  return simulate_swarm(config, arrivals, horizon);
}

std::vector<double> poisson_arrivals(double rate, double horizon,
                                     stats::Rng& rng) {
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(rate * horizon) + 16);
  double now = 0.0;
  while (true) {
    now += rng.exponential(rate);
    if (now >= horizon) break;
    arrivals.push_back(now);
  }
  return arrivals;
}

std::vector<double> flashcrowd_arrivals(double base_rate, double horizon,
                                        std::size_t surge_peers,
                                        double surge_start,
                                        double surge_mean_gap,
                                        stats::Rng& rng) {
  std::vector<double> arrivals = poisson_arrivals(base_rate, horizon, rng);
  double now = surge_start;
  for (std::size_t i = 0; i < surge_peers; ++i) {
    now += rng.exponential(1.0 / surge_mean_gap);
    if (now >= horizon) break;
    arrivals.push_back(now);
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

}  // namespace atlarge::p2p
