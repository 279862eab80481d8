// Unit tests for src/core: RNG determinism, step accounting, registers, the
// node pool behind lazy materialization, and the scheduler gate handshake
// (exercised through the simulator).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/ctx.h"
#include "core/node_pool.h"
#include "core/register.h"
#include "core/rng.h"
#include "counting/bounded_fai.h"
#include "renaming/adaptive_strong.h"
#include "sim/executor.h"

namespace renamelib {
namespace {

TEST(Rng, DeterministicStreams) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowIsInRangeAndCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, DeriveDiffersBySalt) {
  EXPECT_NE(Rng::derive(1, 0), Rng::derive(1, 1));
  EXPECT_EQ(Rng::derive(1, 5), Rng::derive(1, 5));
}

TEST(Ctx, CountsSharedSteps) {
  Ctx ctx(0, 1);
  Register<int> reg(0);
  EXPECT_EQ(ctx.shared_steps(), 0u);
  reg.store(ctx, 5);
  EXPECT_EQ(reg.load(ctx), 5);
  EXPECT_EQ(ctx.shared_steps(), 2u);
}

TEST(Ctx, CoinBatchesCountAsOneStep) {
  Ctx ctx(0, 1);
  Register<int> reg(0);
  // Three coin flips between two shared ops count as one step (paper Sec. 2).
  reg.store(ctx, 1);
  (void)ctx.rng().coin();
  (void)ctx.rng().coin();
  (void)ctx.rng().coin();
  reg.store(ctx, 2);
  EXPECT_EQ(ctx.shared_steps(), 2u);
  EXPECT_EQ(ctx.coin_flips(), 3u);
  EXPECT_EQ(ctx.steps(), 3u);  // 2 shared + 1 coin batch
}

TEST(Ctx, MintTokenUniqueAndPidTagged) {
  Ctx a(3, 1), b(4, 1);
  std::set<std::uint64_t> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.insert(a.mint_token());
    tokens.insert(b.mint_token());
  }
  EXPECT_EQ(tokens.size(), 200u);
}

TEST(Register, CompareExchangeSemantics) {
  Ctx ctx(0, 1);
  Register<int> reg(10);
  int expected = 5;
  EXPECT_FALSE(reg.compare_exchange(ctx, expected, 99));
  EXPECT_EQ(expected, 10);
  EXPECT_TRUE(reg.compare_exchange(ctx, expected, 99));
  EXPECT_EQ(reg.load(ctx), 99);
}

TEST(Register, FetchAddAndExchange) {
  Ctx ctx(0, 1);
  Register<std::uint64_t> reg(0);
  EXPECT_EQ(reg.fetch_add(ctx, 3), 0u);
  EXPECT_EQ(reg.fetch_add(ctx, 4), 3u);
  EXPECT_EQ(reg.exchange(ctx, 100), 7u);
  EXPECT_EQ(reg.load(ctx), 100u);
}

TEST(RegisterArray, BoundsAndInit) {
  RegisterArray<int> arr(4, 7);
  EXPECT_EQ(arr.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(arr[i].peek(), 7);
}

TEST(LabelScope, NestsAndRestores) {
  Ctx ctx(0, 1);
  EXPECT_STREQ(ctx.label(), "");
  {
    LabelScope outer{ctx, "outer"};
    EXPECT_STREQ(ctx.label(), "outer");
    {
      LabelScope inner{ctx, "inner"};
      EXPECT_STREQ(ctx.label(), "inner");
    }
    EXPECT_STREQ(ctx.label(), "outer");
  }
  EXPECT_STREQ(ctx.label(), "");
}

// --- NodePool -------------------------------------------------------------

struct alignas(64) Line {
  std::uint64_t word[8];
};

TEST(NodePool, ConcurrentLanesNeverOverlapAndHonourAlignment) {
  NodePool pool;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;  // several slabs per lane
  struct Block {
    std::uintptr_t begin, end;
    int owner;
  };
  std::vector<std::vector<Block>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Ctx ctx(t, 1);
      for (int i = 0; i < kPerThread; ++i) {
        void* p;
        std::size_t bytes;
        std::size_t align;
        switch (i % 4) {
          case 0: bytes = sizeof(Line), align = alignof(Line), p = pool.make<Line>(ctx); break;
          case 1: bytes = 1, align = 1, p = pool.make<std::uint8_t>(ctx, std::uint8_t{7}); break;
          case 2: bytes = 24, align = 8, p = pool.allocate(ctx, bytes, align); break;
          default: bytes = 5000, align = 16, p = pool.allocate(ctx, bytes, align); break;
        }
        const auto a = reinterpret_cast<std::uintptr_t>(p);
        ASSERT_EQ(a % align, 0u) << "bytes " << bytes;
        std::memset(p, t, bytes);  // a racing overlap would be caught below
        got[t].push_back({a, a + bytes, t});
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<Block> all;
  for (int t = 0; t < kThreads; ++t) {
    for (const Block& b : got[t]) {
      // Every byte still holds its writer's mark: no other thread wrote it.
      const auto* bytes = reinterpret_cast<const unsigned char*>(b.begin);
      ASSERT_EQ(bytes[0], t);
      ASSERT_EQ(bytes[b.end - b.begin - 1], t);
      all.push_back(b);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Block& x, const Block& y) { return x.begin < y.begin; });
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_LE(all[i - 1].end, all[i].begin) << "blocks " << i - 1 << " and " << i;
  }
  EXPECT_TRUE(pool.materialized());
  EXPECT_GT(pool.slab_count(), static_cast<std::size_t>(kThreads));
}

TEST(NodePool, BorrowersShareTheOwnersSlabs) {
  NodePool owner;
  NodePool borrower(owner);
  NodePool nested(borrower);  // borrows the owner, not the borrower
  const Ctx ctx(0, 1);
  EXPECT_FALSE(owner.materialized());
  (void)nested.make<int>(ctx, 1);
  EXPECT_TRUE(owner.materialized());
  EXPECT_TRUE(borrower.materialized());
  EXPECT_EQ(owner.slab_count(), 1u);
  (void)borrower.make<int>(ctx, 2);
  EXPECT_EQ(nested.slab_count(), 1u);
}

TEST(NodePool, ConstructingThePapersObjectsAllocatesNothing) {
  const counting::BoundedFetchAndIncrement fai(1024);
  EXPECT_FALSE(fai.pool().materialized());
  EXPECT_EQ(fai.pool().slab_count(), 0u);
  const renaming::AdaptiveStrongRenaming renaming;
  EXPECT_FALSE(renaming.pool().materialized());
  EXPECT_EQ(renaming.pool().slab_count(), 0u);
}

TEST(NodePool, MaterializedCountsStayExact) {
  // A solo op builds one node per level; three more threads then build
  // exactly the nodes on the paths of the values they are handed.
  counting::BoundedFetchAndIncrement fai(16);
  Ctx solo(0, 1);
  EXPECT_EQ(fai.fetch_and_increment(solo), 0u);
  EXPECT_EQ(fai.materialized_nodes(), 4u);  // the 16-, 8-, 4- and 2-valued nodes
  std::vector<std::thread> threads;
  for (int t = 1; t <= 3; ++t) {
    threads.emplace_back([&, t] {
      Ctx ctx(t, 7);
      for (int i = 0; i < 5; ++i) (void)fai.fetch_and_increment(ctx);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fai.materialized_nodes(), 15u);  // all 16 values handed out

  // Hardware arbiters: a solo rename of temporary name 1 meets S_0's one
  // comparator only.
  renaming::AdaptiveStrongRenaming::Options options;
  options.comparators = renaming::AdaptiveComparatorKind::kHardware;
  renaming::AdaptiveStrongRenaming renaming(options);
  const auto out = renaming.rename_instrumented(solo, 42);
  EXPECT_EQ(out.name, 1u);
  EXPECT_EQ(renaming.materialized_comparators(), out.comparators);
}

// --- simulator smoke tests (full coverage in sim_test.cpp) ---------------

TEST(Simulator, RunsToCompletionAndCountsSteps) {
  Register<std::uint64_t> shared(0);
  sim::RoundRobinAdversary adversary;
  auto result = sim::run_simulation(
      4,
      [&](Ctx& ctx) {
        for (int i = 0; i < 10; ++i) shared.fetch_add(ctx, 1);
      },
      adversary);
  EXPECT_EQ(result.finished_count(), 4u);
  EXPECT_EQ(result.total_granted_steps, 40u);
  EXPECT_EQ(shared.peek(), 40u);
  for (const auto& p : result.procs) EXPECT_EQ(p.shared_steps, 10u);
}

TEST(Simulator, DeterministicGivenSeedAndAdversary) {
  auto run = [](std::uint64_t seed) {
    Register<std::uint64_t> shared(0);
    sim::RandomAdversary adversary(99);
    sim::RunOptions options;
    options.seed = seed;
    options.record_trace = true;
    auto result = sim::run_simulation(
        3,
        [&](Ctx& ctx) {
          for (int i = 0; i < 5; ++i) {
            if (ctx.rng().coin()) shared.fetch_add(ctx, 1);
            shared.load(ctx);
          }
        },
        adversary, options);
    std::vector<int> pids;
    for (const auto& ev : result.trace.events()) pids.push_back(ev.pid);
    return pids;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace renamelib
