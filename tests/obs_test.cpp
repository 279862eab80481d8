// Tests for the observability layer (src/obs/): the gate's disabled-path
// no-op contract, event-bus shard merging, snapshot delta arithmetic, the
// flight recorder's wrap-around consistency, and the report schema's
// optional per-run events section (emitted only for runs that recorded
// events).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "api/report.h"
#include "api/workload.h"
#include "obs/emit.h"

namespace renamelib::obs {
namespace {

/// Every obs consumer off, bus and ring cleared — each test starts from the
/// process-default state regardless of what ran before it.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_all(); }
  void TearDown() override { reset_all(); }

  static void reset_all() {
    Gate::set(Gate::kCoverage, false);
    Gate::set(Gate::kBus, false);
    Gate::set(Gate::kRecorder, false);
    EventBus::instance().reset();
    FlightRecorder::instance().reset();
  }
};

TEST_F(ObsTest, DisabledEmitIsANoOpOnEveryConsumer) {
  ASSERT_EQ(Gate::mask(), 0u);
  for (int i = 0; i < 100; ++i) {
    emit(Site::kCasFail, static_cast<std::uint64_t>(i));
    emit_for(Site::kSchedCrash, 7, 3);
  }
  EXPECT_TRUE(EventBus::instance().snapshot().empty());
  EXPECT_EQ(FlightRecorder::instance().recorded(), 0u);
  EXPECT_TRUE(FlightRecorder::instance().dump().empty());
  EXPECT_EQ(FlightRecorder::instance().format_tail(), "");
}

TEST_F(ObsTest, GateBitsAreIndependent) {
  EventBus::set_enabled(true);
  EXPECT_TRUE(EventBus::enabled());
  EXPECT_FALSE(FlightRecorder::enabled());
  emit(Site::kLeaseSeize, 1);
  EXPECT_EQ(EventBus::instance().snapshot().count(Site::kLeaseSeize), 1u);
  EXPECT_EQ(FlightRecorder::instance().recorded(), 0u);

  EventBus::set_enabled(false);
  FlightRecorder::set_enabled(true);
  emit(Site::kLeaseSeize, 2);
  EXPECT_EQ(EventBus::instance().snapshot().count(Site::kLeaseSeize), 1u);
  EXPECT_EQ(FlightRecorder::instance().recorded(), 1u);
}

TEST_F(ObsTest, BusMergesPerThreadShardsExactly) {
  EventBus::set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        EventBus::instance().count(Site::kCasFail);
        if (i % 2 == 0) EventBus::instance().count(Site::kLeaseSeize);
      }
    });
  }
  for (auto& t : threads) t.join();
  const EventSnapshot snap = EventBus::instance().snapshot();
  EXPECT_EQ(snap.count(Site::kCasFail),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.count(Site::kLeaseSeize),
            static_cast<std::uint64_t>(kThreads) * kPerThread / 2);
  EXPECT_EQ(snap.total(), snap.count(Site::kCasFail) +
                              snap.count(Site::kLeaseSeize));
}

TEST_F(ObsTest, SnapshotDeltaMergeAndNonzero) {
  EventSnapshot a;
  a.set(Site::kCasFail, 10);
  a.set(Site::kLeaseSeize, 3);
  EventSnapshot b;
  b.set(Site::kCasFail, 4);
  b.set(Site::kLeaseDrop, 5);

  EventSnapshot sum = a;
  sum.merge(b);
  EXPECT_EQ(sum.count(Site::kCasFail), 14u);
  EXPECT_EQ(sum.count(Site::kLeaseDrop), 5u);
  EXPECT_EQ(sum.count(Site::kLeaseSeize), 3u);
  EXPECT_EQ(sum.total(), 22u);

  const EventSnapshot delta = sum - b;
  EXPECT_EQ(delta, a);

  // Saturating: a reset between two snapshots cannot wrap a delta negative.
  const EventSnapshot floor = b - sum;
  EXPECT_EQ(floor.count(Site::kCasFail), 0u);
  EXPECT_EQ(floor.count(Site::kLeaseDrop), 0u);
  EXPECT_TRUE(floor.empty());

  // nonzero() is the sparse ascending-site form reports serialize.
  const auto sparse = a.nonzero();
  ASSERT_EQ(sparse.size(), 2u);
  EXPECT_EQ(sparse[0].first, Site::kCasFail);
  EXPECT_EQ(sparse[0].second, 10u);
  EXPECT_EQ(sparse[1].first, Site::kLeaseSeize);
  EXPECT_EQ(sparse[1].second, 3u);
}

// The per-thread shards of a simulated run merge to exactly the serial
// count: every op through a width-4 bitonic network crosses depth(4) = 3
// balancers, so nproc * ops_per_proc ops emit exactly 3x that many
// kNetBalancer events — no sampling, no loss, no double counting.
TEST_F(ObsTest, SimulatedRunCountsEqualSerialExpectation) {
  EventBus::set_enabled(true);
  api::Scenario s;
  s.nproc = 4;
  s.ops_per_proc = 8;
  s.backend = api::Backend::kSimulated;
  s.seed = 7;
  const api::Run run = api::Workload::run_facet_spec(
      api::Facet::kCounter, "bitonic_countnet:w=4", s);
  ASSERT_EQ(run.metrics.ops, 32u);
  EXPECT_EQ(run.events.count(Site::kNetBalancer), 32u * 3u);
  // The sched_point site fires once per granted step of the simulation.
  EXPECT_GT(run.events.count(Site::kSchedPoint), 0u);

  // Run::events is a delta: a second identical run reports its own counts,
  // not the accumulated bus totals, and determinism makes them identical.
  const api::Run again = api::Workload::run_facet_spec(
      api::Facet::kCounter, "bitonic_countnet:w=4", s);
  EXPECT_EQ(again.events, run.events);
}

TEST_F(ObsTest, FlightRecorderWrapKeepsNewestEntriesInOrder) {
  FlightRecorder::set_enabled(true);
  constexpr std::uint64_t kTotal = FlightRecorder::kCapacity * 2 + 57;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    emit_for(Site::kLeaseSeize, i, static_cast<int>(i % 5));
  }
  EXPECT_EQ(FlightRecorder::instance().recorded(), kTotal);
  const auto tail = FlightRecorder::instance().dump();
  ASSERT_EQ(tail.size(), FlightRecorder::kCapacity);
  // Oldest retained entry first, consecutive seqs, features intact.
  const std::uint64_t first = kTotal - FlightRecorder::kCapacity;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, first + i);
    EXPECT_EQ(tail[i].site, Site::kLeaseSeize);
    EXPECT_EQ(tail[i].feature, first + i);
    EXPECT_EQ(tail[i].pid, static_cast<int>((first + i) % 5));
  }
  const std::string text = FlightRecorder::instance().format_tail(4);
  EXPECT_NE(text.find("lease_seize"), std::string::npos);
  EXPECT_NE(text.find("#" + std::to_string(kTotal - 1)), std::string::npos);
}

TEST_F(ObsTest, ThreadPidScopeTagsAndRestores) {
  FlightRecorder::set_enabled(true);
  {
    ThreadPidScope outer(2);
    emit(Site::kLeaseSeize, 0);
    {
      ThreadPidScope inner(9);
      emit(Site::kLeaseSeize, 1);
    }
    emit(Site::kLeaseSeize, 2);
  }
  emit(Site::kLeaseSeize, 3);  // back to the -1 harness default
  const auto tail = FlightRecorder::instance().dump();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].pid, 2);
  EXPECT_EQ(tail[1].pid, 9);
  EXPECT_EQ(tail[2].pid, 2);
  EXPECT_EQ(tail[3].pid, -1);
}

TEST_F(ObsTest, ReportEventsAreSparseAndOptional) {
  api::BenchReport report;
  report.bench = "bench_obs";
  report.git_describe = "v0-test";
  api::ReportRun with;
  with.name = "evented";
  with.spec = "";
  with.backend = "simulated";
  with.threads = 2;
  with.ops = 10;
  with.unit = "steps";
  with.latency = stats::LatencySnapshot::of({1, 2, 3});
  EventSnapshot snap;
  snap.set(Site::kCasFail, 17);
  snap.set(Site::kLeaseSeize, 5);
  with.events = api::report_events(snap);
  report.runs.push_back(with);
  api::ReportRun without = with;
  without.name = "plain";
  without.events.clear();
  report.runs.push_back(without);

  const std::string json = report.to_json();
  // Only the evented run carries the section; event-less runs keep the
  // pre-events byte form.
  EXPECT_NE(json.find("\"events\": {\"cas_fail\": 17, \"lease_seize\": 5}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"events\""), json.rfind("\"events\""));
}

TEST_F(ObsTest, SiteNamesAreStableAndDocumented) {
  // Names key report JSON; ids key coverage features. Spot-check the pinned
  // values so an accidental renumber/rename fails here, not in a baseline
  // diff three commits later. Ids 4-6 and 11-16 are reserved (retired
  // sites): the ids after them keep their values and the reserved ones have
  // no name.
  EXPECT_EQ(static_cast<std::uint32_t>(Site::kCasFail), 3u);
  EXPECT_EQ(static_cast<std::uint32_t>(Site::kLeaseRefillMint), 7u);
  EXPECT_EQ(static_cast<std::uint32_t>(Site::kNetBalancer), 17u);
  EXPECT_EQ(static_cast<std::uint32_t>(Site::kSplitterDown), 20u);
  EXPECT_STREQ(site_name(Site::kCasFail), "cas_fail");
  EXPECT_STREQ(site_name(Site::kNetBalancer), "net_balancer");
  for (std::size_t i = 1; i < kSiteCount; ++i) {
    const auto site = static_cast<Site>(i);
    if ((i >= 4 && i <= 6) || (i >= 11 && i <= 16)) {
      EXPECT_STREQ(site_name(site), "unknown") << i;
      continue;
    }
    EXPECT_STRNE(site_name(site), "unknown") << i;
    EXPECT_STRNE(site_doc(site), "unknown site") << i;
  }
}

}  // namespace
}  // namespace renamelib::obs
