#pragma once
// The fluid rate model that simulate_swarm and the sharded swarm network
// share: one epoch's piece availability, total upload and per-leecher
// download rate. Each engine keeps its own census, RNG streams and faults.

#include <algorithm>
#include <cstdint>

namespace atlarge::p2p::detail {

constexpr double kMbPerMbpsSecond = 1.0 / 8.0;  // Mbps * s -> MB

/// Per-leecher download rate of one epoch, Mb/s. `progress_sum` sums the
/// leechers' downloaded fractions of the content, `peer_seeds` counts the
/// seeding peers beside the config's initial seeds, and
/// `extra_upload_mbps` is upload from outside the swarm, added last.
/// `Config` is a SwarmConfig or a SwarmNetConfig.
template <class Config>
double fluid_rate(const Config& config, std::uint32_t leechers,
                  std::uint32_t peer_seeds, double progress_sum,
                  double extra_upload_mbps) {
  if (leechers == 0) return 0.0;
  const auto seeds =
      peer_seeds + static_cast<std::uint32_t>(config.initial_seeds);
  // Piece availability: young swarms (few seeds relative to leechers)
  // cannot use all leecher upload because rare pieces bottleneck
  // exchange. availability -> 1 as seeds or progress grow.
  const double mean_progress = progress_sum / leechers;
  const double availability = std::min(
      1.0,
      (static_cast<double>(seeds) + mean_progress * leechers) / leechers);
  const double upload_total =
      static_cast<double>(config.initial_seeds) * config.seed_upload_mbps +
      static_cast<double>(peer_seeds) * config.peer_upload_mbps +
      static_cast<double>(leechers) * config.peer_upload_mbps *
          availability +
      extra_upload_mbps;
  const double usable = upload_total * config.efficiency;
  return std::min(config.peer_download_mbps, usable / leechers);
}

}  // namespace atlarge::p2p::detail
