// Tail-latency recording: log-bucketed (HDR-style) histograms with O(1)
// add and no overflow loss.
//
// The paper's claims are statements about tails ("w.h.p.", O(log k) steps),
// and a fixed-width histogram destroys exactly the tail we care about:
// everything past its last bucket collapses into one overflow count.
// LatencySnapshot instead buckets by value magnitude — kSubBuckets buckets
// per power of two — so the whole uint64 range is representable at a bounded
// relative resolution (<= 1/kSubBuckets ~ 3%), a recording is a fixed-size
// array regardless of sample count, and merging two recordings (across
// processes or across runs) is bucket-wise addition.
//
// Concurrency model: none inside the type. A LatencySnapshot is a plain
// trivially copyable value; the workload harness gives every process its own
// cache-line-aligned result slot (api::Contribution), each written only by
// its owner, and merges the slots in pid order once the processes finished.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "stats/summary.h"

namespace renamelib::stats {

/// Log-bucket geometry of LatencySnapshot.
struct LatencyBuckets {
  /// log2 of the sub-bucket count per power of two. 5 => 32 sub-buckets,
  /// <= 3.2% relative bucket width everywhere.
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;
  /// Dense bucket count covering every uint64 value (no overflow bucket).
  static constexpr std::size_t kCount =
      static_cast<std::size_t>(64 - kSubBits + 1) * kSubBuckets;

  /// Bucket index of `v`: values below 2*kSubBuckets map exactly; above,
  /// the top kSubBits+1 significant bits select the bucket. O(1).
  static constexpr std::size_t index_of(std::uint64_t v) {
    if (v < 2 * kSubBuckets) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;
    return (static_cast<std::size_t>(shift) << kSubBits) +
           static_cast<std::size_t>(v >> shift);
  }

  /// Inclusive lower edge of bucket `i`.
  static constexpr std::uint64_t lower(std::size_t i) {
    if (i < 2 * kSubBuckets) return i;
    const int shift = static_cast<int>(i >> kSubBits) - 1;
    const std::uint64_t mantissa = (i & (kSubBuckets - 1)) | kSubBuckets;
    return mantissa << shift;
  }

  /// Exclusive upper edge of bucket `i` (0 means "past uint64 max").
  static constexpr std::uint64_t upper(std::size_t i) {
    if (i < 2 * kSubBuckets) return i + 1;
    const int shift = static_cast<int>(i >> kSubBits) - 1;
    return lower(i) + (1ull << shift);
  }
};

/// A recording of values: dense log-bucket counts plus exact
/// count/sum/min/max moments. Trivially copyable (a fixed-size array, no
/// heap), so it can live in a shared-memory result slot; mergeable across
/// processes and across runs; percentile queries resolve to the bucket
/// holding the nearest-rank sample (error bounded by one log-bucket,
/// <= 1/kSubBuckets relative). At ~15 KiB it is too large to hold by value
/// on a simulated process's 64 KiB fiber stack: record into a slot in place.
class LatencySnapshot {
 public:
  /// Builds a snapshot from raw samples (values < 0 clamp to 0) — the
  /// bridge for sample vectors, e.g. simulated-backend step counts.
  static LatencySnapshot of(const std::vector<double>& samples);

  /// Adds one value (exact moments + its bucket).
  void add(std::uint64_t value);
  /// Bucket-wise merge of another recording (processes or runs).
  void merge(const LatencySnapshot& o);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Nearest-rank percentile, p in [0, 1]: the inclusive lower edge of the
  /// bucket containing the rank-ceil(p*count) sample, clamped to min().
  /// Within one log-bucket of the exact sorted-sample percentile by
  /// construction, and always inside [min(), max()].
  std::uint64_t percentile(double p) const;

  /// The stats::Summary shape benches print (p50/p90/p99 from buckets,
  /// mean/min/max exact, stddev from exact moments) — drop-in for
  /// stats::summarize over a raw sample vector.
  Summary to_summary() const;

  /// Count in bucket `i` (see LatencyBuckets for edges).
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
  /// Non-empty buckets as (lower, upper, count) rows, ascending — the
  /// sparse form reports serialize.
  struct Bar {
    std::uint64_t lower = 0;
    std::uint64_t upper = 0;  ///< exclusive; 0 means past uint64 max
    std::uint64_t count = 0;
  };
  std::vector<Bar> nonzero_buckets() const;

  /// Exact moment accessors (serialized by reports).
  double sum() const { return sum_; }
  double sum_sq() const { return sum_sq_; }

 private:
  std::array<std::uint64_t, LatencyBuckets::kCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace renamelib::stats
