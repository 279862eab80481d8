#include "stats/latency_recorder.h"

#include <cmath>
#include <stdexcept>

#include "core/assert.h"

namespace renamelib::stats {

LatencySnapshot LatencySnapshot::of(const std::vector<double>& samples) {
  LatencySnapshot out;
  for (const double s : samples) {
    out.add(s <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(s)));
  }
  return out;
}

void LatencySnapshot::add(std::uint64_t value) {
  buckets_[LatencyBuckets::index_of(value)] += 1;
  count_ += 1;
  const double v = static_cast<double>(value);
  sum_ += v;
  sum_sq_ += v * v;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void LatencySnapshot::merge(const LatencySnapshot& o) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
  sum_ += o.sum_;
  sum_sq_ += o.sum_sq_;
  if (o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
}

std::uint64_t LatencySnapshot::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  // Nearest rank: the ceil(p*count)-th smallest sample (1-based), at least 1.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen < rank) continue;
    // The bucket's lower edge can undershoot the recorded minimum (which
    // lives somewhere inside the lowest non-empty bucket); clamping keeps
    // min <= percentile <= max, an invariant report consumers check.
    const std::uint64_t lo = LatencyBuckets::lower(i);
    return lo < min_ ? min_ : lo;
  }
  return max_;
}

Summary LatencySnapshot::to_summary() const {
  Summary s;
  s.count = static_cast<std::size_t>(count_);
  if (count_ == 0) return s;
  s.mean = mean();
  s.min = static_cast<double>(min());
  s.max = static_cast<double>(max_);
  if (count_ > 1) {
    const double n = static_cast<double>(count_);
    const double var = (sum_sq_ - n * s.mean * s.mean) / (n - 1);
    s.stddev = var > 0 ? std::sqrt(var) : 0.0;
  }
  s.p50 = static_cast<double>(percentile(0.50));
  s.p90 = static_cast<double>(percentile(0.90));
  s.p99 = static_cast<double>(percentile(0.99));
  return s;
}

std::vector<LatencySnapshot::Bar> LatencySnapshot::nonzero_buckets() const {
  std::vector<Bar> out;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    out.push_back(Bar{LatencyBuckets::lower(i), LatencyBuckets::upper(i),
                      buckets_[i]});
  }
  return out;
}

LatencySnapshot LatencySnapshot::from_parts(std::uint64_t count, double sum,
                                            double sum_sq, std::uint64_t min,
                                            std::uint64_t max,
                                            const std::vector<Bar>& bars) {
  LatencySnapshot out;
  std::uint64_t total = 0;
  for (const Bar& b : bars) {
    const std::size_t i = LatencyBuckets::index_of(b.lower);
    if (LatencyBuckets::lower(i) != b.lower) {
      throw std::invalid_argument(
          "latency bucket lower edge " + std::to_string(b.lower) +
          " is not a bucket boundary");
    }
    out.buckets_[i] += b.count;
    total += b.count;
  }
  if (total != count) {
    throw std::invalid_argument("latency bucket counts sum to " +
                                std::to_string(total) + ", expected " +
                                std::to_string(count));
  }
  if (count > 0) {
    // min/max must lie inside the lowest/highest non-empty bucket — a
    // corrupted min would otherwise silently inflate every percentile
    // (percentile() clamps to min).
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t i = 0; i < out.buckets_.size(); ++i) {
      if (out.buckets_[i] == 0) continue;
      if (out.buckets_[lo] == 0) lo = i;
      hi = i;
    }
    if (LatencyBuckets::index_of(min) != lo ||
        LatencyBuckets::index_of(max) != hi) {
      throw std::invalid_argument(
          "latency min/max (" + std::to_string(min) + ", " +
          std::to_string(max) + ") do not lie in the extreme non-empty "
          "buckets");
    }
  }
  out.count_ = count;
  out.sum_ = sum;
  out.sum_sq_ = sum_sq;
  out.min_ = count == 0 ? ~0ull : min;
  out.max_ = max;
  return out;
}

LatencyRecorder::LatencyRecorder(int threads) : threads_(threads) {
  // Validate before allocating: a negative count cast to size_t would ask
  // new[] for ~2^64 slots and throw bad_alloc instead of this diagnostic.
  RENAMELIB_ENSURE(threads > 0, "latency recorder needs at least one thread");
  slots_.reset(new Slot[static_cast<std::size_t>(threads)]);
}

void LatencyRecorder::record(int thread, std::uint64_t value) noexcept {
  Slot& slot = slots_[static_cast<std::size_t>(thread)];
  // Single-writer slot: plain load/store pairs are safe, atomics only make
  // the concurrent snapshot() reader race-free.
  slot.buckets[LatencyBuckets::index_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  const double v = static_cast<double>(value);
  slot.sum.store(slot.sum.load(std::memory_order_relaxed) + v,
                 std::memory_order_relaxed);
  slot.sum_sq.store(slot.sum_sq.load(std::memory_order_relaxed) + v * v,
                    std::memory_order_relaxed);
  if (value < slot.min.load(std::memory_order_relaxed)) {
    slot.min.store(value, std::memory_order_relaxed);
  }
  if (value > slot.max.load(std::memory_order_relaxed)) {
    slot.max.store(value, std::memory_order_relaxed);
  }
}

LatencySnapshot LatencyRecorder::snapshot() const {
  LatencySnapshot out;
  for (int t = 0; t < threads_; ++t) {
    const Slot& slot = slots_[static_cast<std::size_t>(t)];
    // The total is derived from the bucket loads (not slot.count) so a
    // mid-run snapshot is internally consistent: percentile ranks always
    // match the bucket mass actually seen.
    for (std::size_t i = 0; i < LatencyBuckets::kCount; ++i) {
      const std::uint64_t n = slot.buckets[i].load(std::memory_order_relaxed);
      out.buckets_[i] += n;
      out.count_ += n;
    }
    out.sum_ += slot.sum.load(std::memory_order_relaxed);
    out.sum_sq_ += slot.sum_sq.load(std::memory_order_relaxed);
    const std::uint64_t mn = slot.min.load(std::memory_order_relaxed);
    const std::uint64_t mx = slot.max.load(std::memory_order_relaxed);
    if (mn < out.min_) out.min_ = mn;
    if (mx > out.max_) out.max_ = mx;
  }
  return out;
}

}  // namespace renamelib::stats
