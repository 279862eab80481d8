// Tests for the deterministic Moir–Anderson grid renaming.
#include <gtest/gtest.h>

#include <vector>

#include "renaming/moir_anderson.h"
#include "renaming/validate.h"
#include "sim/executor.h"

namespace renamelib {
namespace {

// --------------------------------------------------------- MoirAnderson ---

TEST(MoirAnderson, SoloGetsNameOneInOneSplitter) {
  renaming::MoirAndersonRenaming ma(8);
  Ctx ctx(0, 1);
  const auto out = ma.rename_instrumented(ctx, 42);
  EXPECT_EQ(out.name, 1u);
  EXPECT_EQ(out.moves, 1u);
}

TEST(MoirAnderson, DeterministicNoCoins) {
  renaming::MoirAndersonRenaming ma(8);
  Ctx ctx(0, 1);
  (void)ma.rename(ctx, 7);
  EXPECT_EQ(ctx.coin_flips(), 0u);
}

TEST(MoirAnderson, SequentialNamesFollowDiagonals) {
  // Sequential processes: each sees only STOP/RIGHT outcomes along row 0;
  // names follow the diagonal numbering of column c: c(c+1)/2 + 1.
  renaming::MoirAndersonRenaming ma(8);
  std::vector<std::uint64_t> names;
  for (int p = 0; p < 5; ++p) {
    Ctx ctx(p, p + 1);
    names.push_back(ma.rename(ctx, p + 1));
  }
  EXPECT_EQ(names, (std::vector<std::uint64_t>{1, 2, 4, 7, 11}));
}

class MoirAndersonSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MoirAndersonSweep, UniqueWithinQuadraticNamespace) {
  const auto [k, seed] = GetParam();
  renaming::MoirAndersonRenaming ma(static_cast<std::size_t>(k));
  std::vector<renaming::MoirAndersonRenaming::Outcome> outs(k);
  sim::RandomAdversary adversary(seed * 3 + 1);
  sim::RunOptions options;
  options.seed = seed;
  auto result = sim::run_simulation(
      k,
      [&](Ctx& ctx) {
        outs[ctx.pid()] = ma.rename_instrumented(
            ctx, static_cast<std::uint64_t>(ctx.pid()) + 1);
      },
      adversary, options);
  ASSERT_EQ(result.finished_count(), static_cast<std::size_t>(k));
  std::vector<std::uint64_t> names;
  for (const auto& o : outs) {
    names.push_back(o.name);
    // Walk length bounded by the triangle diameter.
    EXPECT_LE(o.moves, static_cast<std::uint64_t>(k));
  }
  const auto check = renaming::check_tight(
      names, static_cast<std::uint64_t>(k) * (k + 1) / 2);
  EXPECT_TRUE(check.ok) << check.error << " k=" << k << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MoirAndersonSweep,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16, 32),
                                            ::testing::Range<std::uint64_t>(0, 6)));

TEST(MoirAnderson, AdaptiveNamespaceDespiteLargeGrid) {
  // Grid provisioned for 64 but only k=5 participate: names stay within
  // 5*6/2 = 15 even under adversarial schedules.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    renaming::MoirAndersonRenaming ma(64);
    const int k = 5;
    std::vector<std::uint64_t> names(k, 0);
    sim::RandomAdversary adversary(seed + 13);
    sim::RunOptions options;
    options.seed = seed;
    auto result = sim::run_simulation(
        k,
        [&](Ctx& ctx) { names[ctx.pid()] = ma.rename(ctx, ctx.pid() + 1); },
        adversary, options);
    ASSERT_EQ(result.finished_count(), static_cast<std::size_t>(k));
    EXPECT_TRUE(renaming::check_tight(names, 15).ok) << "seed " << seed;
  }
}

}  // namespace
}  // namespace renamelib
