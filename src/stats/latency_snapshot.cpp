#include "stats/latency_snapshot.h"

#include <cmath>

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

}  // namespace renamelib::stats
