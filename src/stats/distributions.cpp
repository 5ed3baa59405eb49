#include "atlarge/stats/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace atlarge::stats {

Zipf::Zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("Zipf: n must be positive");
  if (s <= 0.0) throw std::invalid_argument("Zipf: exponent must be positive");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_[rank - 1] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding drift
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

double Zipf::pmf(std::size_t rank) const {
  if (rank == 0 || rank > cdf_.size()) return 0.0;
  const double hi = cdf_[rank - 1];
  const double lo = rank == 1 ? 0.0 : cdf_[rank - 2];
  return hi - lo;
}

BoundedPareto::BoundedPareto(double lo, double hi, double shape) noexcept
    : lo_(lo), hi_(hi), shape_(shape) {}

double BoundedPareto::operator()(Rng& rng) const noexcept {
  const double u = rng.uniform();
  const double la = std::pow(lo_, shape_);
  const double ha = std::pow(hi_, shape_);
  // Inverse CDF of the Pareto truncated to [lo, hi].
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / shape_);
}

LogNormal::LogNormal(double mu, double sigma) noexcept
    : mu_(mu), sigma_(sigma) {}

double LogNormal::operator()(Rng& rng) const noexcept {
  return std::exp(rng.normal(mu_, sigma_));
}

double LogNormal::mean() const noexcept {
  return std::exp(mu_ + sigma_ * sigma_ / 2.0);
}

}  // namespace atlarge::stats
