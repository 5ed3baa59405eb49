#pragma once
// The ten elasticity metrics of the paper's autoscaling experiments
// (Section 6.7; Herbst et al., TOMPECS 2018). All are computed from the
// supply/demand step curves an elastic simulation records: demand is the
// core demand of running+eligible tasks, supply the cores of provisioned
// machines. Accuracy metrics are in cores (time-averaged); normalized
// variants divide by average demand; timeshares, instability are in [0,1];
// jitter is in events/hour.

#include <span>

namespace atlarge::autoscale {

/// One point of the piecewise-constant supply/demand curves; values hold
/// until the next point. Times are nondecreasing.
struct SupplyDemandPoint {
  double time = 0.0;
  double demand = 0.0;  // cores demanded
  double supply = 0.0;  // cores provisioned
};

struct ElasticityMetrics {
  double accuracy_over = 0.0;        // avg (supply-demand)+ in cores
  double accuracy_under = 0.0;       // avg (demand-supply)+ in cores
  double norm_accuracy_over = 0.0;   // accuracy_over / avg demand
  double norm_accuracy_under = 0.0;  // accuracy_under / avg demand
  double timeshare_over = 0.0;       // fraction of time supply > demand
  double timeshare_under = 0.0;      // fraction of time supply < demand
  double instability = 0.0;  // fraction of steps where supply and demand
                             // move in opposite directions
  double jitter_per_hour = 0.0;  // supply direction changes per hour
  double avg_supply = 0.0;
  double avg_demand = 0.0;
};

/// Computes the metrics over [series.front().time, horizon]. Returns a
/// zero struct for series with fewer than one point or a non-positive
/// window.
ElasticityMetrics compute_metrics(std::span<const SupplyDemandPoint> series,
                                  double horizon);

}  // namespace atlarge::autoscale
