// Unit tests for the sharded counter family (src/sharded): the striped
// counter's statistic and dispenser modes. Registry-level conformance (dense
// prefixes under both backends across the spec sweep) lives in
// api_conformance_test.cpp; this file checks the native-object contracts the
// facade does not see — read-monotonicity of the striped combine and exact
// sequential value order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/workload.h"
#include "sharded/striped_counter.h"

namespace renamelib::sharded {
namespace {

// ------------------------------------------------------- striped counter ---

TEST(StripedCounter, SequentialNextHandsOutConsecutiveValues) {
  for (const std::size_t stripes : {1u, 3u, 8u}) {
    StripedCounter c({.stripes = stripes});
    Ctx ctx(0, 7);
    for (std::uint64_t i = 0; i < 50; ++i) {
      EXPECT_EQ(c.next(ctx), i) << "stripes=" << stripes;
    }
  }
}

TEST(StripedCounter, IncrementAndReadCombineAcrossStripes) {
  StripedCounter c({.stripes = 4});
  // Distinct pids land on distinct stripes; read() combines them all.
  for (int pid = 0; pid < 6; ++pid) {
    Ctx ctx(pid, 11 + static_cast<std::uint64_t>(pid));
    c.increment(ctx);
    c.increment(ctx);
  }
  Ctx reader(0, 3);
  EXPECT_EQ(c.read(reader), 12u);
}

TEST(StripedCounter, ReadIsMonotoneUnderTheAdversarialSimulator) {
  // One reader process interleaved with three incrementers under the
  // adversarial scheduler: successive combines must never go backwards, and
  // never overshoot the true total.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    StripedCounter c({.stripes = 8});
    std::vector<std::uint64_t> reads;  // written only by pid 3's body
    api::Scenario s;
    s.nproc = 4;
    s.backend = api::Backend::kSimulated;
    s.sched = api::Sched::kRandom;
    s.seed = seed;
    const api::Run run = api::Workload(s).run_body([&](Ctx& ctx) {
      if (ctx.pid() == 3) {
        for (int i = 0; i < 16; ++i) reads.push_back(c.read(ctx));
      } else {
        for (int i = 0; i < 10; ++i) c.increment(ctx);
      }
    });
    ASSERT_EQ(run.finished_procs, 4u);
    ASSERT_EQ(reads.size(), 16u);
    EXPECT_TRUE(std::is_sorted(reads.begin(), reads.end()))
        << "seed=" << seed;
    EXPECT_LE(reads.back(), 30u);
    Ctx quiescent(0, 1);
    EXPECT_EQ(c.read(quiescent), 30u);
  }
}

TEST(StripedCounter, DispenserConsumesEveryTicketUnderHardwareThreads) {
  // Contention stress (and the race detector's view of next()): 800
  // concurrent takes must consume exactly 800 tickets.
  StripedCounter c({.stripes = 8});
  api::Scenario s;
  s.nproc = 4;
  s.backend = api::Backend::kHardware;
  s.seed = 99;
  const api::Run run = api::Workload(s).run_body([&](Ctx& ctx) {
    for (int i = 0; i < 200; ++i) c.next(ctx);
  });
  ASSERT_EQ(run.finished_procs, 4u);
  // Re-run the dispenser once more: the next value proves 800 were consumed.
  Ctx ctx(0, 1);
  std::vector<std::uint64_t> tail;
  for (int i = 0; i < 8; ++i) tail.push_back(c.next(ctx));
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i], 800 + i);
  }
}

}  // namespace
}  // namespace renamelib::sharded
