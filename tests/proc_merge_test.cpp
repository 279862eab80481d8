// The telemetry merge algebra behind the per-process result slots, without
// forking: EventSnapshot / LatencySnapshot / Metrics merges are commutative,
// associative, and order-insensitive — the property that makes folding the
// slots (the proc backend's survivors' mailboxes, or every hardware and
// simulated process's slot) in pid order equal any other fold. The slot holds
// these types directly (api::Contribution is trivially copyable), so nothing
// is converted crossing the process boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "api/metrics.h"
#include "obs/event_bus.h"
#include "stats/latency_snapshot.h"

namespace renamelib::proc {
namespace {

/// Deterministic value scrambler (splitmix64 finalizer): the tests need
/// varied, reproducible payloads, not randomness.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Integer-valued samples keep the double moments exact, so "bit-for-bit"
/// below means literal operator== on sums, not a tolerance.
stats::LatencySnapshot latency_of(std::uint64_t seed, int samples) {
  stats::LatencySnapshot s;
  for (int i = 0; i < samples; ++i) {
    s.add(mix(seed + static_cast<std::uint64_t>(i)) % 1'000'000);
  }
  return s;
}

obs::EventSnapshot events_of(std::uint64_t seed) {
  obs::EventSnapshot s;
  for (std::size_t i = 0; i < obs::kSiteCount; ++i) {
    s.set(static_cast<obs::Site>(i), mix(seed * 31 + i) % 1000);
  }
  return s;
}

api::Metrics metrics_of(std::uint64_t seed) {
  api::Metrics m;
  m.ops = mix(seed) % 500 + 1;
  m.steps = mix(seed + 1) % 5000 + m.ops;
  m.shared_steps = mix(seed + 2) % 2000;
  m.coin_flips = mix(seed + 3) % 300;
  m.max_op_steps = mix(seed + 4) % 64 + 1;
  m.max_proc_steps = mix(seed + 5) % 9000 + 1;
  return m;
}

void expect_latency_eq(const stats::LatencySnapshot& a,
                       const stats::LatencySnapshot& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.sum_sq(), b.sum_sq());
  for (std::size_t i = 0; i < stats::LatencyBuckets::kCount; ++i) {
    ASSERT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
  }
}

void expect_metrics_eq(const api::Metrics& a, const api::Metrics& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.shared_steps, b.shared_steps);
  EXPECT_EQ(a.coin_flips, b.coin_flips);
  EXPECT_EQ(a.max_op_steps, b.max_op_steps);
  EXPECT_EQ(a.max_proc_steps, b.max_proc_steps);
}

TEST(MergeAlgebra, EventMergeIsCommutativeAndAssociative) {
  const obs::EventSnapshot a = events_of(1), b = events_of(2), c = events_of(3);

  obs::EventSnapshot ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  obs::EventSnapshot ab_c = ab, bc = b;
  ab_c.merge(c);
  bc.merge(c);
  obs::EventSnapshot a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
}

TEST(MergeAlgebra, LatencyMergeIsOrderInsensitive) {
  std::vector<stats::LatencySnapshot> parts;
  for (int i = 0; i < 4; ++i) parts.push_back(latency_of(100 + i, 30 + i));

  stats::LatencySnapshot forward, reverse, pairwise;
  for (int i = 0; i < 4; ++i) forward.merge(parts[static_cast<std::size_t>(i)]);
  for (int i = 3; i >= 0; --i) reverse.merge(parts[static_cast<std::size_t>(i)]);
  stats::LatencySnapshot left = parts[0], right = parts[2];
  left.merge(parts[1]);
  right.merge(parts[3]);
  pairwise = left;
  pairwise.merge(right);

  expect_latency_eq(forward, reverse);
  expect_latency_eq(forward, pairwise);
}

TEST(MergeAlgebra, MetricsMergeIsOrderInsensitive) {
  const api::Metrics a = metrics_of(11), b = metrics_of(12), c = metrics_of(13);
  api::Metrics forward, reverse;
  forward.merge(a);
  forward.merge(b);
  forward.merge(c);
  reverse.merge(c);
  reverse.merge(b);
  reverse.merge(a);
  expect_metrics_eq(forward, reverse);
}

}  // namespace
}  // namespace renamelib::proc
