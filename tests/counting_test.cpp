// Tests for the counting applications (Sec. 8): max registers, the
// monotone-consistent counter (Lemma 4, including the paper's
// non-linearizability scenario), l-test-and-set (Lemma 5), the m-valued
// fetch-and-increment (Theorem 6), and the baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/counters.h"
#include "api/workload.h"
#include "counting/baselines.h"
#include "counting/bounded_fai.h"
#include "counting/l_test_and_set.h"
#include "counting/max_register.h"
#include "counting/monotone_counter.h"
#include "sim/adversary.h"
#include "sim/executor.h"

namespace renamelib::counting {
namespace {

// ----------------------------------------------------------- MaxRegister ---

TEST(MaxRegister, SequentialSemantics) {
  MaxRegister reg(64);
  Ctx ctx(0, 1);
  EXPECT_EQ(reg.read(ctx), 0u);
  reg.write_max(ctx, 5);
  EXPECT_EQ(reg.read(ctx), 5u);
  reg.write_max(ctx, 3);  // smaller: no effect
  EXPECT_EQ(reg.read(ctx), 5u);
  reg.write_max(ctx, 63);
  EXPECT_EQ(reg.read(ctx), 63u);
}

TEST(MaxRegister, AllValuesRoundTrip) {
  for (std::uint64_t v = 0; v < 32; ++v) {
    MaxRegister reg(32);
    Ctx ctx(0, 1);
    reg.write_max(ctx, v);
    EXPECT_EQ(reg.read(ctx), v);
  }
}

TEST(MaxRegister, LogarithmicCost) {
  MaxRegister reg(1 << 16);
  Ctx ctx(0, 1);
  reg.write_max(ctx, 12345);
  const auto w = ctx.shared_steps();
  EXPECT_LE(w, 16u);  // one switch access per level
  (void)reg.read(ctx);
  EXPECT_LE(ctx.shared_steps() - w, 16u);
}

class MaxRegisterConcurrent : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxRegisterConcurrent, ReadsNeverExceedMaxWrittenAndConverge) {
  const std::uint64_t seed = GetParam();
  MaxRegister reg(256);
  const int n = 8;
  std::vector<std::uint64_t> final_read(n, 0);
  sim::RandomAdversary adversary(seed);
  sim::RunOptions options;
  options.seed = seed;
  auto result = sim::run_simulation(
      n,
      [&](Ctx& ctx) {
        const std::uint64_t mine = 10 * (ctx.pid() + 1) + ctx.rng().below(10);
        reg.write_max(ctx, mine);
        final_read[ctx.pid()] = reg.read(ctx);
      },
      adversary, options);
  ASSERT_EQ(result.finished_count(), static_cast<std::size_t>(n));
  Ctx reader(n, 999);
  const std::uint64_t settled = reg.read(reader);
  EXPECT_GE(settled, 10ull * n);  // the largest write is visible
  for (auto r : final_read) {
    EXPECT_LE(r, settled);  // never above the eventual max
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxRegisterConcurrent,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(MaxRegister, ReadAfterOwnWriteSeesAtLeastOwnValue) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    MaxRegister reg(128);
    const int n = 6;
    std::vector<bool> ok(n, false);
    sim::RandomAdversary adversary(seed * 3 + 1);
    sim::RunOptions options;
    options.seed = seed;
    auto result = sim::run_simulation(
        n,
        [&](Ctx& ctx) {
          const std::uint64_t mine = 1 + ctx.pid() * 7;
          reg.write_max(ctx, mine);
          ok[ctx.pid()] = reg.read(ctx) >= mine;
        },
        adversary, options);
    ASSERT_EQ(result.finished_count(), static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) EXPECT_TRUE(ok[p]) << "pid " << p;
  }
}

// Grants pid 0 its first step only, then runs pid 1 to completion, then
// pid 2, then lets pid 0 finish.
class PauseFirstWriterAdversary final : public sim::Adversary {
 public:
  sim::Decision pick(const std::vector<sim::ProcView>& views) override {
    if (!started_) {
      started_ = true;
      return sim::Decision::step(0);
    }
    for (int pid : {1, 2, 0}) {
      if (views[pid].pending) return sim::Decision::step(pid);
    }
    return sim::Decision::step(-1);  // unreachable: some process is pending
  }
  std::string name() const override { return "pause-first-writer"; }

 private:
  bool started_ = false;
};

TEST(MaxRegister, SuppressedSubtreeWriteStillSetsSwitchesAbove) {
  // MaxRegister(4): p0's write_max(3) sets node 3's switch, then pauses
  // before setting the root's. p1's write_max(2) finds node 3 set; its own
  // subtree write is suppressed, but it completes, so p2's later read must
  // return at least 2.
  MaxRegister reg(4);
  std::uint64_t seen = 0;
  PauseFirstWriterAdversary adversary;
  const auto result = sim::run_simulation(
      3,
      [&](Ctx& ctx) {
        if (ctx.pid() == 0) reg.write_max(ctx, 3);
        if (ctx.pid() == 1) reg.write_max(ctx, 2);
        if (ctx.pid() == 2) seen = reg.read(ctx);
      },
      adversary);
  ASSERT_EQ(result.finished_count(), 3u);
  EXPECT_GE(seen, 2u);
  Ctx reader(3, 1);
  EXPECT_EQ(reg.read(reader), 3u);
}

TEST(UnboundedMaxRegister, ReadsSeeEveryWriteCompletedBeforeThem) {
  // Real threads write dense tickets. A read must return at least every
  // value whose write completed before the read began, and no more than the
  // tickets handed out by the time it ends.
  UnboundedMaxRegister reg;
  std::atomic<std::uint64_t> tickets{0};
  std::atomic<std::uint64_t> completed{0};  // max value whose write returned
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Ctx ctx(t, 100 + t);
      for (int i = 0; i < kOps; ++i) {
        if (i % 2 == 0) {
          const std::uint64_t v = tickets.fetch_add(1) + 1;
          reg.write_max(ctx, v);
          std::uint64_t seen = completed.load();
          while (seen < v && !completed.compare_exchange_weak(seen, v)) {
          }
        } else {
          const std::uint64_t floor = completed.load();
          const std::uint64_t r = reg.read(ctx);
          if (r < floor || r > tickets.load()) violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  Ctx reader(kThreads, 1);
  EXPECT_EQ(reg.read(reader), tickets.load());
}

TEST(UnboundedMaxRegister, CrossesBucketBoundaries) {
  UnboundedMaxRegister reg;
  Ctx ctx(0, 1);
  EXPECT_EQ(reg.read(ctx), 0u);
  for (std::uint64_t v : {1u, 2u, 3u, 4u, 7u, 8u, 1000u, 65536u, 1000000u}) {
    reg.write_max(ctx, v);
    EXPECT_EQ(reg.read(ctx), v);
  }
  reg.write_max(ctx, 5);  // stale write
  EXPECT_EQ(reg.read(ctx), 1000000u);
}

// ------------------------------------------------------ MonotoneCounter ---

TEST(MonotoneCounter, SequentialCounts) {
  MonotoneCounter counter;
  Ctx ctx(0, 1);
  EXPECT_EQ(counter.read(ctx), 0u);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    counter.increment(ctx);
    EXPECT_EQ(counter.read(ctx), i);
  }
}

class MonotoneCounterConcurrent
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MonotoneCounterConcurrent, MonotoneConsistency) {
  // Lemma 4's three properties, checked per process: reads are monotone;
  // a read is >= completed increments at its start and <= started increments.
  const auto [n, seed] = GetParam();
  MonotoneCounter counter;
  Register<std::uint64_t> started(0), completed(0);
  struct Obs {
    std::uint64_t value, started_after, completed_before;
  };
  std::vector<std::vector<Obs>> per_proc(n);
  std::vector<bool> monotone(n, true);
  sim::RandomAdversary adversary(seed * 13 + 5);
  sim::RunOptions options;
  options.seed = seed;
  auto result = sim::run_simulation(
      n,
      [&](Ctx& ctx) {
        const int ops = 3;
        std::uint64_t last = 0;
        for (int i = 0; i < ops; ++i) {
          started.fetch_add(ctx, 1);
          counter.increment(ctx);
          completed.fetch_add(ctx, 1);
          const std::uint64_t completed_before = completed.load(ctx);
          const std::uint64_t v = counter.read(ctx);
          const std::uint64_t started_after = started.load(ctx);
          per_proc[ctx.pid()].push_back(Obs{v, started_after, completed_before});
          if (v < last) monotone[ctx.pid()] = false;
          last = v;
        }
      },
      adversary, options);
  ASSERT_EQ(result.finished_count(), static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    EXPECT_TRUE(monotone[p]) << "per-process reads must be monotone";
    for (const auto& obs : per_proc[p]) {
      // The read is anchored between increments known-complete before it
      // started and increments started before it returned.
      EXPECT_GE(obs.value, obs.completed_before);
      EXPECT_LE(obs.value, obs.started_after);
    }
  }
  // Final settled value equals total increments.
  Ctx reader(n, 12345);
  EXPECT_EQ(counter.read(reader), static_cast<std::uint64_t>(n) * 3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MonotoneCounterConcurrent,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Range<std::uint64_t>(0, 5)));

TEST(MonotoneCounter, PaperNonLinearizabilityScenario) {
  // Sec. 8.1: p2 increments and gets name 2 only if another increment (p1)
  // is in flight; a read between p2's completion and p1's completion already
  // returns 2, and a read after p1 completes still returns 2 — so p1's
  // increment cannot be linearized. We reproduce the schedule with the
  // obstruction-style control the simulator gives us: p1 starts (takes a few
  // steps), p2 completes, reads occur, p1 finishes.
  MonotoneCounter counter;
  std::vector<std::uint64_t> reads;

  // Phase control via a shared register: crude but deterministic with the
  // round-robin adversary and fixed step layout is fragile; instead run
  // sequentially with two contexts and interleave manually through the
  // hardware-mode API (no scheduler needed for this fixed schedule).
  Ctx p1(0, 11), p2(1, 22), r(2, 33);

  // p1 starts an increment: performs its renaming but is "paused" before
  // writing the max register. We emulate by doing the rename directly.
  // p2 then runs a complete increment.
  // For this scenario use the counter's internals indirectly: p2 increments
  // fully twice? The paper needs concurrent naming; emulate by having p1
  // and p2 both rename before either writes.
  // Simplest faithful emulation: use instrumented API.
  // p1 rename (gets some name), p2 rename (gets the other), p2 writes,
  // read R1, p1 writes, read R2.
  // With sequential renames p1 gets 1 and p2 gets 2 — matching the paper's
  // assignment where p1 holds the smaller name.
  (void)counter;  // replaced by explicit objects below

  renaming::AdaptiveStrongRenaming renaming;
  UnboundedMaxRegister max;
  const std::uint64_t name1 = renaming.rename(p1, 100);  // p1 in-flight
  const std::uint64_t name2 = renaming.rename(p2, 200);
  ASSERT_EQ(name1, 1u);
  ASSERT_EQ(name2, 2u);
  max.write_max(p2, name2);  // p2 completes first
  reads.push_back(max.read(r));  // R1, after p2, before p1 completes
  max.write_max(p1, name1);  // p1 completes
  reads.push_back(max.read(r));  // R2
  EXPECT_EQ(reads[0], 2u);
  EXPECT_EQ(reads[1], 2u);
  // Both reads return 2 although an increment completed strictly between
  // them: not linearizable as a counter — exactly the paper's argument.
}

// ---------------------------------------------------------- LTestAndSet ---

class LTasSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(LTasSweep, ExactlyMinLKWinners) {
  // Runs through the unified api::Workload harness (generic run_ops hook).
  const auto [l, k, seed] = GetParam();
  LTestAndSet ltas(static_cast<std::uint64_t>(l));
  api::Scenario s;
  s.nproc = k;
  s.ops_per_proc = 1;
  s.seed = seed;
  const auto run = api::Workload(s).run_ops(
      [&](Ctx& ctx) { return ltas.test_and_set(ctx) ? 1ULL : 0ULL; });
  ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(k));
  int winners = 0;
  for (const std::uint64_t v : run.values()) winners += static_cast<int>(v);
  EXPECT_EQ(winners, std::min(l, k)) << "l=" << l << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LTasSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 4, 8),
                                            ::testing::Values(1, 2, 5, 8, 12),
                                            ::testing::Range<std::uint64_t>(0, 3)));

TEST(LTestAndSet, DoorwayExcludesLateArrivals) {
  // Sequential: l winners, then a loser closes the doorway; every later
  // arrival must observe the closed doorway and lose in O(1).
  LTestAndSet ltas(2);
  Ctx a(0, 1), b(1, 2), c(2, 3), d(3, 4);
  EXPECT_TRUE(ltas.test_and_set(a));
  EXPECT_TRUE(ltas.test_and_set(b));
  EXPECT_FALSE(ltas.test_and_set(c));  // closes doorway
  const std::uint64_t steps_before = d.shared_steps();
  EXPECT_FALSE(ltas.test_and_set(d));
  EXPECT_EQ(d.shared_steps() - steps_before, 1u);  // single doorway read
}

// ------------------------------------------------------------ BoundedFai ---

TEST(BoundedFai, SequentialHandsOutConsecutiveValues) {
  BoundedFetchAndIncrement fai(16);
  Ctx ctx(0, 1);
  for (std::uint64_t expected = 0; expected < 16; ++expected) {
    EXPECT_EQ(fai.fetch_and_increment(ctx), expected);
  }
  // Saturation: keeps returning m-1.
  EXPECT_EQ(fai.fetch_and_increment(ctx), 15u);
  EXPECT_EQ(fai.fetch_and_increment(ctx), 15u);
}

TEST(BoundedFai, MaterializesOnlyInternalNodes) {
  // m sequential ops visit every internal node of the tree; the 1-valued
  // leaves always return 0 and are never built.
  for (const std::uint64_t m : {2u, 16u, 64u}) {
    BoundedFetchAndIncrement fai(m);
    Ctx ctx(0, 1);
    for (std::uint64_t i = 0; i < m; ++i) fai.fetch_and_increment(ctx);
    EXPECT_EQ(fai.materialized_nodes(), m - 1) << "m=" << m;
  }
}

class BoundedFaiSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(BoundedFaiSweep, ConcurrentValuesAreDistinctPrefix) {
  // Runs the ICounter adapter under the unified api::Workload harness.
  const auto [m, k, seed] = GetParam();
  api::BoundedFaiCounter counter(static_cast<std::uint64_t>(m));
  api::Scenario s;
  s.nproc = k;
  s.ops_per_proc = 1;
  s.seed = seed;
  const auto run = api::Workload(s).run(counter);
  ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(k));
  // k <= m concurrent ops must receive exactly {0, ..., k-1}.
  std::vector<std::uint64_t> sorted = run.values();
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(sorted[i], static_cast<std::uint64_t>(i))
        << "m=" << m << " k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoundedFaiSweep,
                         ::testing::Combine(::testing::Values(8, 16, 32),
                                            ::testing::Values(2, 4, 8),
                                            ::testing::Range<std::uint64_t>(0, 3)));

TEST(BoundedFai, MixedSequentialAndSaturation) {
  BoundedFetchAndIncrement fai(4);
  Ctx a(0, 1), b(1, 2);
  std::set<std::uint64_t> seen;
  seen.insert(fai.fetch_and_increment(a));
  seen.insert(fai.fetch_and_increment(b));
  seen.insert(fai.fetch_and_increment(a));
  seen.insert(fai.fetch_and_increment(b));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(fai.fetch_and_increment(a), 3u);  // saturated
}

// ------------------------------------------------------------- Baselines ---

TEST(AtomicCounter, Works) {
  AtomicCounter counter;
  Ctx ctx(0, 1);
  counter.increment(ctx);
  counter.increment(ctx);
  EXPECT_EQ(counter.read(ctx), 2u);
  EXPECT_EQ(counter.fetch_and_increment(ctx), 2u);
}

TEST(MaxRegTreeCounter, SequentialAndConcurrent) {
  {
    MaxRegTreeCounter counter(4, 1 << 10);
    Ctx ctx(0, 1);
    for (int i = 0; i < 5; ++i) counter.increment(ctx);
    EXPECT_EQ(counter.read(ctx), 5u);
  }
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const int n = 8;
    MaxRegTreeCounter counter(n, 1 << 10);
    sim::RandomAdversary adversary(seed);
    sim::RunOptions options;
    options.seed = seed;
    auto result = sim::run_simulation(
        n,
        [&](Ctx& ctx) {
          for (int i = 0; i < 4; ++i) counter.increment(ctx);
        },
        adversary, options);
    ASSERT_EQ(result.finished_count(), static_cast<std::size_t>(n));
    Ctx reader(0, 99);
    EXPECT_EQ(counter.read(reader), static_cast<std::uint64_t>(n) * 4);
  }
}

}  // namespace
}  // namespace renamelib::counting
