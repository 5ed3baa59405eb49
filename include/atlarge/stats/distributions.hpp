#pragma once
// Heavy-tailed and bounded distributions used by the AtLarge workload
// generators. Cloud, P2P, and gaming workloads are famously *not* Poisson
// (see the paper's Section 6.1 debunking of Poisson arrivals for
// BitTorrent); these distributions supply the file sizes, session lengths,
// popularity ranks, and service demands the simulators need.

#include <cstddef>
#include <vector>

#include "atlarge/stats/rng.hpp"

namespace atlarge::stats {

/// Zipf distribution over ranks {1, ..., n} with exponent s > 0.
/// Used for content popularity (P2P swarms, MMOG zones, FaaS functions).
class Zipf {
 public:
  Zipf(std::size_t n, double s);

  /// Draws a rank in [1, n].
  std::size_t operator()(Rng& rng) const;

  /// Probability mass of the given rank (1-based).
  double pmf(std::size_t rank) const;

  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cumulative masses, cdf_.back() == 1.
};

/// Bounded Pareto on [lo, hi] with shape alpha; the canonical model for
/// task service demands in datacenter workloads.
class BoundedPareto {
 public:
  BoundedPareto(double lo, double hi, double shape) noexcept;
  double operator()(Rng& rng) const noexcept;

 private:
  double lo_;
  double hi_;
  double shape_;
};

/// Lognormal distribution parameterized by the underlying normal's mu/sigma.
class LogNormal {
 public:
  LogNormal(double mu, double sigma) noexcept;
  double operator()(Rng& rng) const noexcept;
  double mean() const noexcept;

 private:
  double mu_;
  double sigma_;
};

}  // namespace atlarge::stats
