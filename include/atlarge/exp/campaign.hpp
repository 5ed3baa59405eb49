#pragma once
// Declarative design-space campaigns (the engine behind atlarge_campaign).
//
// A campaign binds a design space carved out of a SimulatorAdapter's
// parameters to an enumeration mode and runs the resulting trials through
// the memoizing TrialRunner. The spec format is line-oriented text —
// `key value` pairs plus `dim <name> <option>...` lines that restrict a
// parameter to a subset of its adapter options:
//
//   campaign serverless-keepalive
//   domain serverless
//   mode grid                 # grid | random | explore
//   repeats 3
//   seed 42
//   scale 0.5
//   dim keep_alive 0 300 600
//   dim prewarmed 0 8
//
// Modes:
//  * grid — the Cartesian product of every bound dimension, enumerated in
//    mixed-radix order (last dimension fastest);
//  * random — `trials` points drawn uniformly from the bound space
//    (duplicates possible; the memoizing store collapses them);
//  * explore — budgeted adaptive search: design::explore_free runs over a
//    Landscape whose quality is a monotone transform of the (memoized)
//    mean objective, spending at most `trials` point evaluations.
//
// Memoization key: every trial has a content-hashed key over
// (format version, domain, campaign seed, scale, parameter name=value
// bindings, repeat). Campaign name, mode, and thread count are *excluded*
// so a grid campaign pre-populates the store for a later explore campaign
// over the same space, and so results are reusable across renames.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "atlarge/design/design_space.hpp"
#include "atlarge/design/exploration.hpp"
#include "atlarge/exp/adapter.hpp"
#include "atlarge/stats/rng.hpp"

namespace atlarge::exp {

enum class CampaignMode { kGrid, kRandom, kExplore };

std::string to_string(CampaignMode mode);

struct CampaignSpec {
  std::string name;
  std::string domain;
  CampaignMode mode = CampaignMode::kGrid;
  /// Independent repetitions per design point; repeat index salts the
  /// per-trial seed stream.
  std::size_t repeats = 1;
  std::uint64_t seed = 1;
  /// Workload scale in (0, 1]; adapters shrink job counts / horizons
  /// proportionally (with floors).
  double scale = 1.0;
  /// random: points drawn; explore: point-evaluation budget. Ignored by
  /// grid mode.
  std::size_t trials = 32;
  /// Default worker threads for the runner (CLI --threads overrides).
  std::size_t threads = 1;
  /// Configurations shown in the ranked text table.
  std::size_t top_k = 5;
  /// Per-dimension option restrictions: parameter name -> option tokens
  /// (labels for categorical parameters, numeric literals otherwise).
  /// Order follows the adapter's parameter order regardless of spec line
  /// order; unlisted parameters keep their full option lists.
  std::map<std::string, std::vector<std::string>> dims;
};

/// Parses the spec text; throws std::invalid_argument with a line-number
/// diagnostic on malformed input. Count fields take unsigned decimal
/// integers: a leading '-' or a value past 2^64 - 1 is malformed.
CampaignSpec parse_campaign_spec(const std::string& text);

/// Reads and parses a spec file; throws std::runtime_error when the file
/// cannot be read.
CampaignSpec load_campaign_spec(const std::string& path);

/// One dimension of the bound (spec-restricted) space.
struct BoundDimension {
  std::string name;
  std::size_t param_index = 0;             // into adapter.params()
  std::vector<std::uint32_t> option_indices;  // into ParamSpec::values
};

/// The adapter's parameter space after applying the spec's `dim`
/// restrictions. DesignPoints are indices into the *bound* options.
class BoundSpace {
 public:
  /// Validates the spec against the adapter: unknown dimension names and
  /// tokens matching no adapter option throw std::invalid_argument.
  BoundSpace(const SimulatorAdapter& adapter, const CampaignSpec& spec);

  std::size_t dimensions() const noexcept { return dims_.size(); }
  const std::vector<BoundDimension>& dims() const noexcept { return dims_; }
  const std::vector<ParamSpec>& params() const noexcept { return params_; }
  /// Product of per-dimension option counts.
  std::size_t grid_size() const noexcept;
  /// Option counts per bound dimension (the design::Landscape shape).
  std::vector<std::uint32_t> option_counts() const;

  /// Resolves a bound-space point to adapter parameter values (one per
  /// adapter parameter, in adapter order).
  std::vector<double> values(const design::DesignPoint& point) const;
  /// Spec-facing labels for a point, in adapter parameter order.
  std::vector<std::string> labels(const design::DesignPoint& point) const;

  /// Point `index` of the grid enumeration (mixed radix, last dimension
  /// fastest).
  design::DesignPoint grid_point(std::size_t index) const;
  design::DesignPoint random_point(stats::Rng& rng) const;

 private:
  std::vector<ParamSpec> params_;
  std::vector<BoundDimension> dims_;
};

/// One scheduled trial: a bound-space point plus its repeat index, the
/// derived deterministic seed, and the memoization key.
struct TrialTask {
  std::size_t index = 0;  // enumeration order within the campaign
  design::DesignPoint point;
  std::vector<double> values;        // resolved adapter parameter values
  std::vector<std::string> labels;   // spec-facing option labels
  std::uint32_t repeat = 0;
  std::uint64_t seed = 0;
  std::string key;  // 16 lowercase hex chars
};

/// Canonical trial descriptor (the memo-key preimage). Stable across
/// platforms: doubles are rendered with %.12g.
std::string trial_descriptor(const CampaignSpec& spec, const BoundSpace& space,
                             const std::vector<double>& values,
                             std::uint32_t repeat);

/// Builds the trial for (point, repeat): resolves values, derives the
/// seed from the descriptor hash, renders the key.
TrialTask make_trial(const CampaignSpec& spec, const BoundSpace& space,
                     const design::DesignPoint& point, std::uint32_t repeat,
                     std::size_t index);

/// Full trial list for grid/random mode (points x repeats, repeats
/// innermost). Throws std::logic_error for explore mode — explore
/// schedules its trials adaptively via run_campaign.
std::vector<TrialTask> enumerate_trials(const CampaignSpec& spec,
                                        const BoundSpace& space);

/// FNV-1a 64-bit over `s` (the memo hash; also used to salt per-point
/// bootstrap RNG streams).
std::uint64_t fnv1a64(const std::string& s);

}  // namespace atlarge::exp
