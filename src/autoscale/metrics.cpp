#include "atlarge/autoscale/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace atlarge::autoscale {

ElasticityMetrics compute_metrics(std::span<const SupplyDemandPoint> series,
                                  double horizon) {
  ElasticityMetrics m;
  if (series.empty()) return m;
  const double start = series.front().time;
  const double window = horizon - start;
  if (window <= 0.0) return m;

  double over_integral = 0.0;
  double under_integral = 0.0;
  double over_time = 0.0;
  double under_time = 0.0;
  double supply_integral = 0.0;
  double demand_integral = 0.0;
  std::size_t opposite_moves = 0;
  std::size_t moves = 0;
  std::size_t direction_changes = 0;
  int last_direction = 0;

  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto& p = series[i];
    const double next_time =
        i + 1 < series.size() ? std::min(series[i + 1].time, horizon)
                              : horizon;
    const double dt = std::max(next_time - p.time, 0.0);
    const double over = std::max(p.supply - p.demand, 0.0);
    const double under = std::max(p.demand - p.supply, 0.0);
    over_integral += over * dt;
    under_integral += under * dt;
    if (p.supply > p.demand) over_time += dt;
    if (p.supply < p.demand) under_time += dt;
    supply_integral += p.supply * dt;
    demand_integral += p.demand * dt;

    if (i > 0) {
      const double d_supply = p.supply - series[i - 1].supply;
      const double d_demand = p.demand - series[i - 1].demand;
      if (d_supply != 0.0 || d_demand != 0.0) {
        ++moves;
        if (d_supply * d_demand < 0.0) ++opposite_moves;
      }
      if (d_supply != 0.0) {
        const int direction = d_supply > 0.0 ? 1 : -1;
        if (last_direction != 0 && direction != last_direction)
          ++direction_changes;
        last_direction = direction;
      }
    }
  }

  m.accuracy_over = over_integral / window;
  m.accuracy_under = under_integral / window;
  m.avg_supply = supply_integral / window;
  m.avg_demand = demand_integral / window;
  if (m.avg_demand > 0.0) {
    m.norm_accuracy_over = m.accuracy_over / m.avg_demand;
    m.norm_accuracy_under = m.accuracy_under / m.avg_demand;
  }
  m.timeshare_over = over_time / window;
  m.timeshare_under = under_time / window;
  m.instability = moves == 0 ? 0.0
                             : static_cast<double>(opposite_moves) /
                                   static_cast<double>(moves);
  m.jitter_per_hour =
      static_cast<double>(direction_changes) / (window / 3600.0);
  return m;
}

}  // namespace atlarge::autoscale
