// Concurrent tail-latency recording: per-thread, log-bucketed (HDR-style)
// histograms with O(1) record and no overflow loss.
//
// The paper's claims are statements about tails ("w.h.p.", O(log k) steps),
// and a fixed-width histogram destroys exactly the tail we care about:
// everything past its last bucket collapses into one overflow count.
// LatencyRecorder instead buckets by value magnitude — kSubBuckets buckets
// per power of two — so the whole uint64 range is representable at a bounded
// relative resolution (<= 1/kSubBuckets ~ 3%), a recording is a fixed-size
// array regardless of sample count, and merging two recordings (across
// threads or across runs) is bucket-wise addition.
//
// Concurrency model: one histogram slot per thread, cache-line aligned, each
// written only by its owner thread (relaxed atomics make the concurrent
// snapshot() read race-free). record() is wait-free: a bit-scan, one
// fetch_add, and a handful of owner-only updates. A snapshot taken after the
// writing threads joined is exact; one taken mid-run is a monotone lower
// bound per bucket.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/summary.h"

namespace renamelib::stats {

/// Log-bucket geometry shared by LatencyRecorder and LatencySnapshot.
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

/// A merged, immutable view of recorded values: dense log-bucket counts plus
/// exact count/sum/min/max moments. Mergeable across threads and across
/// runs; percentile queries resolve to the bucket holding the nearest-rank
/// sample (error bounded by one log-bucket, <= 1/kSubBuckets relative).
class LatencySnapshot {
 public:
  LatencySnapshot() : buckets_(LatencyBuckets::kCount, 0) {}

  /// Builds a snapshot from raw samples (values < 0 clamp to 0) — the
  /// bridge for sample vectors that never went through a recorder, e.g.
  /// simulated-backend step counts.
  static LatencySnapshot of(const std::vector<double>& samples);

  /// Adds one value (exact moments + its bucket).
  void add(std::uint64_t value);
  /// Bucket-wise merge of another recording (threads or runs).
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

  /// Rebuilds a snapshot from serialized moments + sparse buckets (the proc
  /// mailbox). Throws std::invalid_argument if a bucket lower edge is not a
  /// valid bucket boundary, counts disagree, or min/max lie outside the
  /// extreme non-empty buckets.
  static LatencySnapshot from_parts(std::uint64_t count, double sum,
                                    double sum_sq, std::uint64_t min,
                                    std::uint64_t max,
                                    const std::vector<Bar>& bars);

  /// Exact moment accessors (serialized by reports).
  double sum() const { return sum_; }
  double sum_sq() const { return sum_sq_; }

 private:
  friend class LatencyRecorder;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// The concurrent recorder: one cache-line-aligned log-bucket histogram per
/// thread, written only by that thread. record() is wait-free O(1);
/// snapshot() merges all threads.
class LatencyRecorder {
 public:
  /// One slot per thread; `threads` must cover every thread index passed to
  /// record().
  explicit LatencyRecorder(int threads);

  int threads() const { return threads_; }

  /// Records `value` for `thread` (0-based). Only `thread` itself may call
  /// this with its index — the single-writer discipline is what makes the
  /// slot updates contention-free.
  void record(int thread, std::uint64_t value) noexcept;

  /// Merged view across all threads. Exact once writers have joined.
  LatencySnapshot snapshot() const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, LatencyBuckets::kCount> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> min{~0ull};
    std::atomic<std::uint64_t> max{0};
    std::atomic<double> sum{0};
    std::atomic<double> sum_sq{0};
  };

  int threads_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace renamelib::stats
