#pragma once
// Log-linear percentile digest (HDR-histogram style): each power-of-two
// octave is split into kSub linear sub-buckets, so any positive value is
// recorded with bounded relative error (one part in kSub, ~3%) using a
// single array increment — no per-sample storage, no data-dependent
// allocation, no comparison sorts.
//
// The digest is the ecosystem's *mergeable* quantile representation: two
// digests over disjoint sample streams merge by adding bucket counts, and
// the merge of per-trial digests answers campaign-level "p99 across all
// repeats" questions that per-trial quantiles cannot (quantiles do not
// average). Bucket counts, extrema, and therefore every quantile are
// insertion-order invariant; only the scalar sum rounds per IEEE addition
// order. Merge is commutative bitwise, and the campaign aggregates merge
// in enumeration order, which is what lets serial and parallel campaign
// runs produce byte-identical merged digests.
//
// Quantiles are reported as the upper edge of the target bucket clamped to
// the observed [min, max]. serialize()/deserialize() round-trip the
// exact state (%.17g doubles, sparse bucket encoding), so digests persist
// through the campaign store byte-identically.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace atlarge::obs {

class Digest {
 public:
  static constexpr int kSubBits = 5;
  /// Linear sub-buckets per octave: relative error <= 1/kSub.
  static constexpr int kSub = 1 << kSubBits;
  /// Values <= 2^kMinExp collapse into the underflow bucket (with zero and
  /// negatives); values > 2^kMaxExp collapse into the overflow bucket.
  static constexpr int kMinExp = -24;  // ~6.0e-8
  static constexpr int kMaxExp = 40;   // ~1.1e12
  static constexpr int kOctaves = kMaxExp - kMinExp;
  static constexpr int kBuckets = kOctaves * kSub + 2;  // + under/overflow

  /// Records `n` observations of `v`. O(1), allocation-free. Non-finite
  /// values land in the overflow bucket and are excluded from sum/min/max
  /// (they have no usable magnitude); everything else is tracked exactly
  /// in the scalar accumulators and at bucket resolution in the array.
  void add(double v, std::uint64_t n = 1) noexcept;

  /// Adds every observation of `other` into this digest. The result is
  /// identical to having recorded both streams into one digest.
  void merge(const Digest& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return finite_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return finite_ == 0 ? 0.0 : max_; }
  double mean() const noexcept {
    return finite_ == 0 ? 0.0 : sum_ / static_cast<double>(finite_);
  }

  /// Upper-edge estimate of the q-quantile (q clamped to [0,1]), clamped
  /// to the observed [min, max]. Returns 0 when empty. Relative error is
  /// bounded by 1/kSub inside [2^kMinExp, 2^kMaxExp].
  double quantile(double q) const noexcept;
  double p50() const noexcept { return quantile(0.50); }
  double p95() const noexcept { return quantile(0.95); }
  double p99() const noexcept { return quantile(0.99); }
  double p999() const noexcept { return quantile(0.999); }

  /// Observations recorded strictly above `x`, at bucket resolution: the
  /// bucket straddling `x` counts as above (conservative for SLO "bad
  /// event" detection). Exact when `x` is a bucket upper edge.
  std::uint64_t count_above(double x) const noexcept;

  /// Inclusive upper edge of bucket `i` (the value quantile() reports for
  /// mass resolved to that bucket, before min/max clamping).
  static double bucket_upper_bound(int i) noexcept;

  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }

  /// Exact state comparison — the determinism property tests' workhorse.
  friend bool operator==(const Digest& a, const Digest& b) noexcept {
    return a.count_ == b.count_ && a.finite_ == b.finite_ &&
           a.sum_ == b.sum_ && a.min_ == b.min_ && a.max_ == b.max_ &&
           a.buckets_ == b.buckets_;
  }

  /// Compact exact encoding: "d1;count;finite;sum;min;max;idx:n,idx:n,..."
  /// with %.17g doubles, so deserialize(serialize()) == *this bitwise.
  /// Empty digests serialize to "" and "" deserializes to an empty digest.
  std::string serialize() const;

  /// Parses serialize() output; returns false (leaving `out` empty) on any
  /// malformation. Exposed for the campaign store and external tooling.
  static bool deserialize(std::string_view text, Digest& out);

 private:
  static int bucket_index(double v) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t finite_ = 0;  // observations with a usable magnitude
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace atlarge::obs
