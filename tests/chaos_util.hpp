#pragma once
// Property-test harness for the fault plane. A chaos scenario is a closure
// that runs one domain simulation under an optional fault plan and folds
// the results it cares about into a fingerprint string (exact decimal
// renderings, no rounding). The harness then pins the two contracts every
// domain must honour:
//
//  * Null safety: a null plan and an empty plan produce byte-identical
//    fingerprints — the fault plane is invisible until a non-empty plan is
//    supplied, so pre-fault behaviour is regression-locked.
//  * Replay determinism: running under a plan and re-running under the
//    same plan produce byte-identical fingerprints — applying a plan is
//    purely deterministic; all randomness lives in FaultPlan::generate.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/digest.hpp"

namespace atlarge::chaos {

/// Runs one simulation; `plan` may be null (no faults). Returns a
/// fingerprint: every metric the scenario cares about, rendered exactly.
using Scenario = std::function<std::string(const fault::FaultPlan*)>;

/// Renders a double with full round-trip precision for fingerprints.
inline std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Order-invariant digest fingerprint for sharded-run scenarios: count,
/// extrema, and an FNV hash over the nonzero bucket array. The scalar
/// sum is deliberately excluded — it rounds per IEEE addition order, and
/// tied-timestamp events may fold into a digest in different orders on
/// different shard layouts while the recorded multiset is identical.
inline std::string digest_fingerprint(const obs::Digest& digest) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto& buckets = digest.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    hash = (hash ^ i) * 1099511628211ULL;
    hash = (hash ^ buckets[i]) * 1099511628211ULL;
  }
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "n=%llu min=%.17g max=%.17g h=%llx",
                static_cast<unsigned long long>(digest.count()), digest.min(),
                digest.max(), static_cast<unsigned long long>(hash));
  return buffer;
}

/// Null plan and empty plan are byte-identical (and equal to a second
/// null-plan run, catching hidden global state).
inline void expect_null_plan_identity(const Scenario& scenario) {
  const std::string without = scenario(nullptr);
  const fault::FaultPlan empty;
  EXPECT_EQ(without, scenario(&empty))
      << "an empty fault plan changed the simulation";
  EXPECT_EQ(without, scenario(nullptr)) << "null-plan run is not idempotent";
}

/// A faulted run replays byte-identically under the same plan.
inline void expect_replay_identity(const Scenario& scenario,
                                   const fault::FaultPlan& plan) {
  const std::string first = scenario(&plan);
  EXPECT_EQ(first, scenario(&plan)) << "faulted run is not deterministic";
}

/// Full property check: null identity + replay identity for `plan`.
inline void check_scenario(const Scenario& scenario,
                           const fault::FaultPlan& plan) {
  expect_null_plan_identity(scenario);
  expect_replay_identity(scenario, plan);
}

}  // namespace atlarge::chaos
