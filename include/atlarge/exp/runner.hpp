#pragma once
// TrialRunner: memoized, deterministic parallel execution of campaign
// trials over sim::ThreadPool.
//
// Determinism discipline (same contract as PortfolioConfig::eval_threads):
// every trial's seed is derived from its content descriptor, workers
// write results into per-trial slots, and all shared state — the
// ResultStore, the obs plane — is touched only from the calling thread
// after the parallel join, in trial-enumeration order. Serial and
// parallel execution therefore produce identical stores and identical
// aggregates, byte for byte.
//
// Observability: the runner bumps exp.trials_{requested,executed,
// memoized,skipped} counters, sets an exp.threads gauge, records an
// exp.trial_wall_ms digest, and emits one "exp.trial" span per
// executed trial (plus an enclosing "exp.run" span) using wall seconds
// since run() entry as the span timeline, so an exported Chrome trace
// shows campaign fan-out lanes. Spans carry wall time, not simulated
// time, and are excluded from every deterministic artifact.

#include <cstdint>
#include <optional>
#include <vector>

#include "atlarge/exp/adapter.hpp"
#include "atlarge/exp/campaign.hpp"
#include "atlarge/exp/store.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::exp {

struct RunnerConfig {
  std::size_t threads = 1;
  double scale = 1.0;
  /// Cap on trials *executed* (memo misses) per run() call; 0 = no cap.
  /// Tasks beyond the cap are skipped and reported in stats().skipped —
  /// the campaign is then incomplete and a later invocation resumes it.
  /// (This is how CI simulates a killed campaign deterministically.)
  std::size_t max_executed = 0;
  /// Optional instrumentation plane (not owned, may be null). Touched
  /// only from the calling thread.
  obs::Observability* obs = nullptr;
};

struct RunnerStats {
  std::size_t requested = 0;  // tasks passed to run(), cumulative
  std::size_t executed = 0;   // simulations actually run
  std::size_t memoized = 0;   // served from the store
  std::size_t skipped = 0;    // beyond max_executed
  double wall_ms = 0.0;       // wall time spent inside run()
};

class TrialRunner {
 public:
  /// The adapter and store must outlive the runner.
  TrialRunner(const SimulatorAdapter& adapter, ResultStore& store,
              RunnerConfig config);

  /// Runs `tasks` (memo hits are free), appends new results to the store
  /// in task order, and returns records aligned with `tasks`; an entry is
  /// nullopt only when the max_executed cap skipped that trial. Duplicate
  /// keys within `tasks` execute once.
  std::vector<std::optional<TrialRecord>> run(
      const std::vector<TrialTask>& tasks);

  const RunnerStats& stats() const noexcept { return stats_; }

 private:
  const SimulatorAdapter* adapter_;
  ResultStore* store_;
  RunnerConfig config_;
  RunnerStats stats_;
};

}  // namespace atlarge::exp
