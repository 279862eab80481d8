// Escrow lease broker: unit protocol checks plus the crash-reclaim suite.
//
//   * broker protocol — range serving order, watermark advances, saturation
//     on a bounded inner dispenser, pool escrow round-trips,
//   * reclaim safety — seizing a live-but-idle holder must never duplicate
//     a position (false positives are free by construction),
//   * kill-mid-refill (CrashAdversary) — victims crash holding partially
//     drained leases; survivors keep uniqueness, quiescent reclaim returns
//     every unreturned range to the pool, and churn drains to holders()==0.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "api/leases.h"
#include "api/registry.h"
#include "api/workload.h"
#include "lease/lease_broker.h"

namespace renamelib::lease {
namespace {

using api::Backend;
using api::Registry;
using api::Scenario;
using api::Workload;

/// Broker over a trivial meta-level ticket source (unit tests only; the
/// simulator suites below mint through registered inner dispensers).
LeaseBroker::Options unit_options(std::uint32_t quota, std::uint32_t window) {
  LeaseBroker::Options o;
  o.procs = 4;
  o.quota = quota;
  o.window = window;
  o.pool_slots = 4;
  o.reclaim_period = 0;  // explicit reclaim() only
  return o;
}

TEST(LeaseBroker, ServesEachLeasedRangeInOrder) {
  std::atomic<std::uint64_t> tickets{0};
  LeaseBroker broker(unit_options(8, 2),
                     [&](Ctx&) { return tickets.fetch_add(1); });
  Ctx ctx(0, 7);
  // Positions stream in-order within a range, ranges in mint order.
  for (std::uint64_t i = 0; i < 24; ++i) {
    EXPECT_EQ(broker.serve(ctx), i);
  }
  const auto s = broker.stats();
  EXPECT_EQ(s.local_serves, 24u);
  EXPECT_EQ(s.refills, 3u);
  EXPECT_EQ(s.minted, 3u);
  EXPECT_EQ(s.pool_grants, 0u);
  // quota 8, window 2: the install grants 2, then 3 advances per lease.
  EXPECT_EQ(s.advances, 9u);
}

TEST(LeaseBroker, DistinctPidsServeDisjointRanges) {
  std::atomic<std::uint64_t> tickets{0};
  LeaseBroker broker(unit_options(4, 4),
                     [&](Ctx&) { return tickets.fetch_add(1); });
  Ctx a(0, 1), b(1, 2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(seen.insert(broker.serve(a)).second);
    EXPECT_TRUE(seen.insert(broker.serve(b)).second);
  }
  // 16 unique positions out of 4 leased ranges, nothing beyond them.
  EXPECT_EQ(*seen.rbegin(), 15u);
}

TEST(LeaseBroker, SaturatesWhenTheInnerDispenserRunsOut) {
  std::atomic<std::uint64_t> tickets{0};
  LeaseBroker::Options o = unit_options(4, 4);
  o.ticket_limit = 2;  // bounded inner: tickets 0 and 1, then repeats
  LeaseBroker broker(o, [&](Ctx&) {
    const std::uint64_t t = tickets.fetch_add(1);
    return t < 2 ? t : 1;  // saturating inner keeps returning its last value
  });
  Ctx ctx(0, 3);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(broker.serve(ctx), i);
  // Ticket 1 is indistinguishable from inner saturation, so the broker pins
  // the saturating value instead of risking duplicate positions.
  EXPECT_EQ(broker.serve(ctx), 7u);
  EXPECT_EQ(broker.serve(ctx), 7u);
}

TEST(LeaseBroker, QuiescentDoubleReclaimSeizesPartialLeases) {
  std::atomic<std::uint64_t> tickets{0};
  LeaseBroker broker(unit_options(8, 2),
                     [&](Ctx&) { return tickets.fetch_add(1); });
  Ctx holder(0, 5), reclaimer(1, 6);
  // Drain 3 of 8 positions: granted watermark sits at 4 (install 2 + one
  // advance of 2), tail [4, 8) still escrowed in the slot.
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(broker.serve(holder), i);
  // Scan 1 records the slot word, scan 2 sees it unchanged and seizes.
  EXPECT_EQ(broker.reclaim(reclaimer), 0u);
  EXPECT_EQ(broker.reclaim(reclaimer), 1u);
  const auto s = broker.stats();
  EXPECT_EQ(s.reclaimed_ranges, 1u);
  EXPECT_EQ(s.reclaimed_positions, 4u);
  EXPECT_EQ(s.dropped_ranges, 0u);
  // The seized tail serves the next refill before any fresh mint.
  EXPECT_EQ(broker.serve(reclaimer), 4u);
  EXPECT_EQ(broker.stats().pool_grants, 1u);
  EXPECT_EQ(broker.stats().minted, 1u);
}

TEST(LeaseBroker, SeizingALiveHolderNeverDuplicatesPositions) {
  std::atomic<std::uint64_t> tickets{0};
  LeaseBroker broker(unit_options(8, 2),
                     [&](Ctx&) { return tickets.fetch_add(1); });
  Ctx holder(0, 5), reclaimer(1, 6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3; ++i) seen.insert(broker.serve(holder));
  // False-positive seizure: the holder is idle, not crashed.
  (void)broker.reclaim(reclaimer);
  ASSERT_EQ(broker.reclaim(reclaimer), 1u);
  // The live holder keeps its granted window [cursor, granted), then its
  // next advance fails (epoch moved) and it refills — every position still
  // unique across both pids, the seized tail included.
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(seen.insert(broker.serve(holder)).second) << "i=" << i;
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(seen.insert(broker.serve(reclaimer)).second) << "i=" << i;
  }
}

TEST(LeaseBroker, PoolOverflowDropsInsteadOfBlocking) {
  std::atomic<std::uint64_t> tickets{0};
  LeaseBroker::Options o = unit_options(8, 2);
  o.pool_slots = 1;
  LeaseBroker broker(o, [&](Ctx&) { return tickets.fetch_add(1); });
  Ctx a(0, 1), b(1, 2), c(2, 3), reclaimer(3, 4);
  // Three partially drained leases, one pool slot: two seizures must drop.
  (void)broker.serve(a);
  (void)broker.serve(b);
  (void)broker.serve(c);
  (void)broker.reclaim(reclaimer);
  EXPECT_EQ(broker.reclaim(reclaimer), 3u);
  const auto s = broker.stats();
  EXPECT_EQ(s.reclaimed_ranges, 3u);
  EXPECT_EQ(s.dropped_ranges, 2u);
}

TEST(LeaseBroker, HardwareThreadsServeUniqueEscrowBoundedValues) {
  // serve() from real threads, with in-line reclaim scans racing the
  // holders' advances and refills: values stay unique and below
  // ops + k*quota (the escrow consistency class's bound).
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50'000;
  const auto counter =
      Registry::global().make_counter("lease:inner=[striped]");
  auto* adapter = dynamic_cast<api::LeasedCounterAdapter*>(counter.get());
  ASSERT_NE(adapter, nullptr);
  std::vector<std::vector<std::uint64_t>> values(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &values, t] {
      Ctx ctx(t, 1000 + static_cast<std::uint64_t>(t));
      values[t].reserve(kOpsPerThread);
      for (int i = 0; i < kOpsPerThread; ++i) {
        values[t].push_back(counter->next(ctx));
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t ops = std::uint64_t{kThreads} * kOpsPerThread;
  const std::uint64_t bound = ops + kThreads * adapter->impl().quota();
  std::set<std::uint64_t> seen;
  for (const auto& per_thread : values) {
    for (const std::uint64_t v : per_thread) {
      ASSERT_TRUE(seen.insert(v).second) << "duplicate value " << v;
      ASSERT_LT(v, bound);
    }
  }
  EXPECT_EQ(seen.size(), ops);
}

// --------------------------------------------------- kill-mid-refill suite ---

/// Crash scenario whose thresholds reach past the refill steps (mint +
/// install), so seed-chosen victims die *holding* partially drained leases,
/// not just before ever installing one.
Scenario crash_scenario(int nproc, int ops, std::uint64_t seed,
                        std::uint64_t crash_step_max = 6) {
  Scenario s;
  s.nproc = nproc;
  s.ops_per_proc = ops;
  s.backend = Backend::kSimulated;
  s.seed = seed;
  s.crashes.max_crashes = 2;
  s.crashes.crash_step_max = crash_step_max;
  return s;
}

TEST(LeaseCrashReclaim, VictimsLeasesAreSeizedAndReissuedAfterCrashStorm) {
  // quota 8 / window 2 over six pids; reclaim=2 also exercises in-run scans
  // under the adversary. Victims crash mid-lease; survivors' and victims'
  // committed values stay unique, and quiescent double-reclaim returns every
  // unreturned tail to the pool, where a fresh pid can be served from it.
  std::uint64_t storms_with_seizures = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto counter = Registry::global().make_counter(
        "lease:quota=8,window=2,procs=8,reclaim=2,inner=[atomic_fai]");
    auto* adapter = dynamic_cast<api::LeasedCounterAdapter*>(counter.get());
    ASSERT_NE(adapter, nullptr);

    const Scenario s = crash_scenario(6, 8, seed);
    const api::Run run = Workload(s).run(*counter);
    ASSERT_EQ(run.crashed_procs, 2u) << "seed=" << seed;

    const std::uint64_t attempted =
        static_cast<std::uint64_t>(s.nproc) * s.ops_per_proc;
    std::set<std::uint64_t> seen;
    for (const std::uint64_t v : run.values()) {
      ASSERT_TRUE(seen.insert(v).second)
          << "seed=" << seed << ": duplicate value " << v;
      ASSERT_LT(v, attempted * 8) << "seed=" << seed;
    }

    // Quiescent reclaim: two scans seize every partially drained lease —
    // the crashed holders' in-flight ranges included.
    Ctx quiescent(7, 100 + seed);
    (void)adapter->impl().reclaim(quiescent);
    (void)adapter->impl().reclaim(quiescent);
    const auto stats = adapter->impl().stats();
    if (stats.reclaimed_ranges > 0) storms_with_seizures += 1;

    // A third scan at quiescence finds nothing left to seize.
    EXPECT_EQ(adapter->impl().reclaim(quiescent), 0u) << "seed=" << seed;

    // Reissue: a fresh pid's serves must come from escrowed ranges (no new
    // mint while the pool is stocked) and stay unique against everything
    // the run handed out.
    if (stats.reclaimed_positions > stats.dropped_ranges * 8) {
      const std::uint64_t minted_before = stats.minted;
      const std::uint64_t v = adapter->impl().serve(quiescent);
      EXPECT_TRUE(seen.insert(v).second) << "seed=" << seed;
      EXPECT_EQ(adapter->impl().stats().minted, minted_before)
          << "seed=" << seed << ": refill minted despite a stocked pool";
    }
  }
  // Thresholds in [1, 6] reach past mint+install for most victims: across
  // six storms at least one lease must have died partially drained.
  EXPECT_GT(storms_with_seizures, 0u);
}

TEST(LeaseCrashReclaim, ChurnDrainsToZeroHoldersUnderCrashes) {
  // Renaming facet, acquire/release churn under crash injection. A victim
  // can only die inside an acquire's shared steps (release is pid-private),
  // so its held count never leaks: after the run every name is back on a
  // free stack and holders() is exactly zero.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto obj = Registry::global().make_renaming(
        "lease:quota=4,procs=8,reclaim=0,inner=[longlived:cap=64]");
    auto* adapter = dynamic_cast<api::LeasedRenamingAdapter*>(obj.get());
    ASSERT_NE(adapter, nullptr);

    // Churn acquires are zero-step after the first (free-stack pops), so
    // thresholds must land inside the first acquire's refill steps — the
    // literal kill-mid-refill schedule.
    const Scenario s = crash_scenario(6, 12, seed, /*crash_step_max=*/3);
    const api::Run run = Workload(s).run_ops([&obj](Ctx& ctx) {
      const std::uint64_t n = obj->acquire(ctx);
      obj->release(ctx, n);
      return n;
    });
    ASSERT_EQ(run.crashed_procs, 2u) << "seed=" << seed;

    EXPECT_EQ(obj->holders(), 0u) << "seed=" << seed;
    // Names recycle through the pid-private free stacks and stay within the
    // quota-scaled inner bound.
    const auto values = run.values();
    const std::set<std::uint64_t> distinct(values.begin(), values.end());
    EXPECT_LT(distinct.size(), values.size()) << "seed=" << seed;
    for (const std::uint64_t v : values) {
      EXPECT_GE(v, 1u) << "seed=" << seed;
      EXPECT_LE(v, 4u * 64u) << "seed=" << seed;
    }
  }
}

TEST(LeaseCrashReclaim, HoldAllAcquiresStayUniqueUnderCrashes) {
  // Hold-all under crashes: survivors' names unique and quota-bounded, and
  // holders() counts exactly the completed acquires (victims die inside an
  // acquire, never between the serve and the held-count bump).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto obj = Registry::global().make_renaming(
        "lease:quota=4,procs=8,reclaim=0,inner=[longlived:cap=64]");
    const Scenario s = crash_scenario(6, 4, seed);
    const api::Run run = Workload(s).run(*obj);
    ASSERT_EQ(run.crashed_procs, 2u) << "seed=" << seed;

    const auto values = run.values();
    const std::set<std::uint64_t> distinct(values.begin(), values.end());
    EXPECT_EQ(distinct.size(), values.size()) << "seed=" << seed;
    EXPECT_EQ(obj->holders(), values.size()) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace renamelib::lease
