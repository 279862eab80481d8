// Tests for the stats module (summary, growth fitting, tables, the
// log-bucketed latency snapshot) — the instruments the experiment benches
// rely on must themselves be correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "stats/fit.h"
#include "stats/latency_snapshot.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace renamelib::stats {
namespace {

TEST(Summary, BasicMoments) {
  const auto s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Summary, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const auto s = summarize({7});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

TEST(Summary, PercentilesNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.90), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.00), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.00), 1.0);
}

TEST(LinearFit, ExactLine) {
  const auto f = fit_linear({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 1 + 2x
  EXPECT_NEAR(f.intercept, 1.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(GrowthFit, RecognizesLogarithmic) {
  std::vector<double> x, y;
  for (double v : {4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0}) {
    x.push_back(v);
    y.push_back(7.5 * std::log2(v));
  }
  const auto f = fit_growth(x, y);
  EXPECT_EQ(f.model, "log");
  EXPECT_NEAR(f.constant, 7.5, 0.1);
  EXPECT_GT(f.r2, 0.999);
}

TEST(GrowthFit, RecognizesLogSquared) {
  std::vector<double> x, y;
  for (double v : {4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0}) {
    x.push_back(v);
    const double lg = std::log2(v);
    y.push_back(2.0 * lg * lg);
  }
  const auto f = fit_growth(x, y);
  EXPECT_EQ(f.model, "log^2");
  EXPECT_NEAR(f.constant, 2.0, 0.05);
}

TEST(GrowthFit, RecognizesLinear) {
  std::vector<double> x, y;
  for (double v : {4.0, 16.0, 64.0, 256.0, 1024.0}) {
    x.push_back(v);
    y.push_back(0.5 * v + 1);
  }
  EXPECT_EQ(fit_growth(x, y).model, "linear");
}

TEST(PolylogRatio, FlatForMatchingExponent) {
  std::vector<double> x, y;
  for (double v : {16.0, 64.0, 256.0, 1024.0}) {
    x.push_back(v);
    const double lg = std::log2(v);
    y.push_back(3.0 * lg * lg);
  }
  EXPECT_NEAR(polylog_ratio(x, y, 2.0), 3.0, 1e-9);
}

TEST(Table, AlignsAndCsv) {
  Table t({"a", "long header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long header"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,long header\n1,2\n333,4\n");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(LatencyBuckets, GeometryIsContiguousAndInvertible) {
  // Exhaustive over the exact range, then sampled across every octave: the
  // bucket index is monotone, edges invert, and every value lands inside
  // its bucket's [lower, upper) window.
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const std::size_t i = LatencyBuckets::index_of(v);
    EXPECT_GE(i, prev);
    EXPECT_LE(i - prev, 1u) << "gap at " << v;
    prev = i;
    EXPECT_LE(LatencyBuckets::lower(i), v);
    EXPECT_GT(LatencyBuckets::upper(i), v);
  }
  for (int shift = 12; shift < 64; ++shift) {
    for (const std::uint64_t v :
         {1ull << shift, (1ull << shift) + 1, (1ull << shift) * 2 - 1}) {
      const std::size_t i = LatencyBuckets::index_of(v);
      ASSERT_LT(i, LatencyBuckets::kCount);
      EXPECT_LE(LatencyBuckets::lower(i), v);
      const std::uint64_t upper = LatencyBuckets::upper(i);
      if (upper != 0) {  // 0 marks the bucket ending past uint64 max
        EXPECT_GT(upper, v);
        // Relative bucket width is the resolution claim: <= 1/kSubBuckets.
        EXPECT_LE(static_cast<double>(upper - LatencyBuckets::lower(i)),
                  static_cast<double>(LatencyBuckets::lower(i)) /
                          LatencyBuckets::kSubBuckets +
                      1.0);
      }
    }
  }
  EXPECT_EQ(LatencyBuckets::index_of(~0ull), LatencyBuckets::kCount - 1);
}

TEST(LatencySnapshot, PercentilesMatchSortedOracleWithinOneBucket) {
  // The acceptance bar: on 1e6 heavy-tailed samples, every reported
  // percentile resolves to exactly the log-bucket holding the nearest-rank
  // sample of the sorted oracle — here recorded into per-process parts and
  // merged, as the workload harness folds its per-process result slots.
  constexpr std::size_t kSamples = 1'000'000;
  constexpr std::size_t kParts = 8;
  std::vector<LatencySnapshot> parts(kParts);
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> heavy(/*m=*/8.0, /*s=*/2.0);
  std::vector<std::uint64_t> all;
  all.reserve(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto v = static_cast<std::uint64_t>(heavy(rng));
    parts[i % kParts].add(v);
    all.push_back(v);
  }
  LatencySnapshot snap;
  for (const LatencySnapshot& part : parts) snap.merge(part);

  std::sort(all.begin(), all.end());
  ASSERT_EQ(snap.count(), kSamples);
  EXPECT_EQ(snap.min(), all.front());
  EXPECT_EQ(snap.max(), all.back());
  for (const double p : {0.50, 0.90, 0.99, 0.999}) {
    const std::uint64_t oracle =
        all[static_cast<std::size_t>(std::ceil(p * kSamples)) - 1];
    const std::uint64_t got = snap.percentile(p);
    EXPECT_EQ(LatencyBuckets::index_of(got), LatencyBuckets::index_of(oracle))
        << "p=" << p << " got=" << got << " oracle=" << oracle;
    // The reported value is the bucket's lower edge: never above the oracle,
    // and within one bucket width (<= 1/kSubBuckets relative) below it.
    EXPECT_LE(got, oracle);
    EXPECT_GT(LatencyBuckets::upper(LatencyBuckets::index_of(got)), oracle);
  }
}

TEST(LatencySnapshot, MergeEqualsRecordingEverythingInOne) {
  const std::vector<double> a{1, 5, 900, 1e7, 3.2e9};
  const std::vector<double> b{2, 5, 1e12, 7};
  LatencySnapshot merged = LatencySnapshot::of(a);
  merged.merge(LatencySnapshot::of(b));

  std::vector<double> both = a;
  both.insert(both.end(), b.begin(), b.end());
  const LatencySnapshot direct = LatencySnapshot::of(both);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.min(), direct.min());
  EXPECT_EQ(merged.max(), direct.max());
  EXPECT_DOUBLE_EQ(merged.sum(), direct.sum());
  for (std::size_t i = 0; i < LatencyBuckets::kCount; ++i) {
    ASSERT_EQ(merged.bucket(i), direct.bucket(i));
  }
}

TEST(LatencySnapshot, NoOverflowLossAtExtremeValues) {
  // Values at the ends of the uint64 range have no overflow bucket to fall
  // into: the log-bucketed snapshot keeps them distinguishable and
  // queryable.
  LatencySnapshot snap;
  snap.add(0);
  snap.add(~0ull);
  snap.add(1ull << 62);
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_EQ(snap.max(), ~0ull);
  EXPECT_EQ(snap.percentile(0.0), 0u);
  const std::uint64_t p100 = snap.percentile(1.0);
  EXPECT_EQ(LatencyBuckets::index_of(p100), LatencyBuckets::index_of(~0ull));
  // Relative resolution survives at the top of the range.
  EXPECT_GE(p100, ~0ull - (~0ull >> LatencyBuckets::kSubBits));
}

TEST(LatencySnapshot, SummaryAgreesWithExactSummarize) {
  std::vector<double> samples;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(1, 5e6);
  for (int i = 0; i < 20'000; ++i) samples.push_back(std::floor(u(rng)));
  const Summary exact = summarize(samples);
  const Summary approx = LatencySnapshot::of(samples).to_summary();
  EXPECT_EQ(approx.count, exact.count);
  EXPECT_DOUBLE_EQ(approx.min, exact.min);
  EXPECT_DOUBLE_EQ(approx.max, exact.max);
  EXPECT_NEAR(approx.mean, exact.mean, 1e-6);
  EXPECT_NEAR(approx.stddev, exact.stddev, exact.stddev * 1e-9 + 1e-6);
  // Percentiles within one log-bucket: lower edge <= exact < upper edge.
  for (const auto& [got, want] : {std::pair{approx.p50, exact.p50},
                                 std::pair{approx.p90, exact.p90},
                                 std::pair{approx.p99, exact.p99}}) {
    EXPECT_LE(got, want);
    EXPECT_GE(got, want * (1.0 - 1.0 / LatencyBuckets::kSubBuckets) - 1);
  }
}

TEST(LatencySnapshot, PercentilesClampToRecordedMin) {
  // All samples share one bucket whose lower edge (1216) undershoots the
  // actual minimum: percentiles must report the min, not the edge, so the
  // serialized min <= p* <= max invariant holds for report consumers.
  const LatencySnapshot snap =
      LatencySnapshot::of(std::vector<double>(8, 1234));
  ASSERT_LT(LatencyBuckets::lower(LatencyBuckets::index_of(1234)), 1234u);
  for (const double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.percentile(p), 1234u) << p;
  }
}

TEST(LatencySnapshot, EmptyIsWellDefined) {
  const LatencySnapshot snap;
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.min(), 0u);
  EXPECT_EQ(snap.max(), 0u);
  EXPECT_EQ(snap.percentile(0.99), 0u);
  EXPECT_EQ(snap.to_summary().count, 0u);
  EXPECT_TRUE(snap.nonzero_buckets().empty());
}

}  // namespace
}  // namespace renamelib::stats
