#pragma once
// Umbrella header for the AtLarge library: an executable rendition of the
// ATLARGE design framework for Massivizing Computer Systems (Iosup et al.,
// ICDCS 2019) together with the simulation substrates behind every
// experiment of the paper's Section 6.
//
// Modules (each usable independently):
//   atlarge::stats      - statistics, distributions, reproducible RNG
//   atlarge::sim        - discrete-event simulation kernel
//   atlarge::obs        - metrics registry, span tracer, kernel observer,
//                         continuous telemetry (time series, percentile
//                         digests, SLO burn-rate monitors, flight recorder)
//   atlarge::trace      - the workload plane: five-int workload events,
//                         .atl binary columnar event traces, seeded
//                         generators, scenario catalog + replay
//   atlarge::workflow   - jobs, DAGs, workload generators
//   atlarge::cluster    - datacenter model, cost models, Figure 9 ref. arch.
//   atlarge::sched      - scheduler zoo + portfolio scheduling (Table 9)
//   atlarge::autoscale  - autoscalers, elasticity metrics, rankings (S 6.7)
//   atlarge::p2p        - BitTorrent swarm/ecosystem simulation (Table 5)
//   atlarge::mmog       - MMOG workloads, provisioning, AoS (Table 6)
//   atlarge::serverless - FaaS platform + workflow engine (Table 7)
//   atlarge::graph      - Graphalytics algorithms + PAD law (Table 8)
//   atlarge::design     - the design framework itself (Figs. 1-3, 5-8)
//   atlarge::exp        - design-space campaign engine (specs, memoized
//                         parallel trials, checkpoint/resume, aggregation)
//   atlarge::fault      - deterministic fault plans + kernel injector
//                         (chaos dimension of every domain simulator)

#include "atlarge/autoscale/autoscaler.hpp"
#include "atlarge/autoscale/autoscalers.hpp"
#include "atlarge/autoscale/elastic_sim.hpp"
#include "atlarge/autoscale/metrics.hpp"
#include "atlarge/autoscale/ranking.hpp"
#include "atlarge/cluster/cost.hpp"
#include "atlarge/cluster/machine.hpp"
#include "atlarge/cluster/refarch.hpp"
#include "atlarge/design/bdc.hpp"
#include "atlarge/design/bibliometrics.hpp"
#include "atlarge/design/catalog.hpp"
#include "atlarge/design/design_space.hpp"
#include "atlarge/design/exploration.hpp"
#include "atlarge/design/review.hpp"
#include "atlarge/exp/adapter.hpp"
#include "atlarge/exp/aggregate.hpp"
#include "atlarge/exp/campaign.hpp"
#include "atlarge/exp/engine.hpp"
#include "atlarge/exp/runner.hpp"
#include "atlarge/exp/store.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/fault/injector.hpp"
#include "atlarge/graph/algorithms.hpp"
#include "atlarge/graph/granula.hpp"
#include "atlarge/graph/graph.hpp"
#include "atlarge/graph/pad.hpp"
#include "atlarge/mmog/analytics.hpp"
#include "atlarge/mmog/interest.hpp"
#include "atlarge/mmog/provisioning.hpp"
#include "atlarge/mmog/workload.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/obs/digest.hpp"
#include "atlarge/obs/flight.hpp"
#include "atlarge/obs/json.hpp"
#include "atlarge/obs/metrics.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/obs/slo.hpp"
#include "atlarge/obs/timeseries.hpp"
#include "atlarge/obs/trace.hpp"
#include "atlarge/p2p/ecosystem.hpp"
#include "atlarge/p2p/flashcrowd.hpp"
#include "atlarge/p2p/monitor.hpp"
#include "atlarge/p2p/swarm.hpp"
#include "atlarge/p2p/swarmnet.hpp"
#include "atlarge/p2p/twofast.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/policy.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/serverless/workflow_engine.hpp"
#include "atlarge/sim/sharded.hpp"
#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/bootstrap.hpp"
#include "atlarge/stats/descriptive.hpp"
#include "atlarge/stats/distributions.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/stats/violin.hpp"
#include "atlarge/trace/atl.hpp"
#include "atlarge/trace/catalog.hpp"
#include "atlarge/trace/event.hpp"
#include "atlarge/trace/gen.hpp"
#include "atlarge/workflow/generators.hpp"
#include "atlarge/workflow/job.hpp"
#include "atlarge/workflow/vicissitude.hpp"
