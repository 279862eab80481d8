// Tests for the Sec. 6.1 adaptive sorting network: stage geometry, the
// sandwich lemma (Lemma 2), materialized stages sort (Theorem 2), the lazy
// traversal agrees exactly with the materialized network, traversal lengths
// respect the O(log^c max(n,m)) bound, the arbiter index gives each
// comparator one object, and adaptive renaming materializes one arbiter per
// comparator its walks meet and, under real threads with either arbiter
// flavor, hands out tight names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "adaptive/adaptive_network.h"
#include "adaptive/arbiter_index.h"
#include "adaptive/sandwich.h"
#include "renaming/adaptive_strong.h"
#include "sim/adversary.h"
#include "sim/executor.h"
#include "sortnet/insertion.h"
#include "sortnet/odd_even_merge.h"
#include "sortnet/verify.h"
#include "tas/two_process_tas.h"

namespace renamelib::adaptive {
namespace {

using sortnet::ComparatorNetwork;

TEST(StageGeometry, WidthsSquareUp) {
  EXPECT_EQ(StageGeometry::width(0), 2u);
  EXPECT_EQ(StageGeometry::width(1), 4u);
  EXPECT_EQ(StageGeometry::width(2), 16u);
  EXPECT_EQ(StageGeometry::width(3), 256u);
  EXPECT_EQ(StageGeometry::width(4), 65536u);
  EXPECT_EQ(StageGeometry::width(5), 1ULL << 32);
}

TEST(StageGeometry, EllAndSandwichWidth) {
  EXPECT_EQ(StageGeometry::ell(1), 1u);
  EXPECT_EQ(StageGeometry::ell(2), 2u);
  EXPECT_EQ(StageGeometry::ell(3), 8u);
  EXPECT_EQ(StageGeometry::sandwich_width(1), 3u);
  EXPECT_EQ(StageGeometry::sandwich_width(2), 14u);
  EXPECT_EQ(StageGeometry::sandwich_width(3), 248u);
}

TEST(StageGeometry, OwningStage) {
  EXPECT_EQ(StageGeometry::owning_stage(1), 0);
  EXPECT_EQ(StageGeometry::owning_stage(2), 1);
  EXPECT_EQ(StageGeometry::owning_stage(3), 2);
  EXPECT_EQ(StageGeometry::owning_stage(8), 2);
  EXPECT_EQ(StageGeometry::owning_stage(9), 3);
  EXPECT_EQ(StageGeometry::owning_stage(128), 3);
  EXPECT_EQ(StageGeometry::owning_stage(129), 4);
  EXPECT_EQ(StageGeometry::owning_stage(32768), 4);
  EXPECT_EQ(StageGeometry::owning_stage(32769), 5);
}

TEST(Sandwich, GenericCompositionSorts) {
  // Lemma 2 with arbitrary (verified) component networks and several ell.
  for (std::size_t m : {4, 6, 8}) {
    for (std::size_t k : {4, 6}) {
      if (k > m) continue;
      for (std::size_t ell = 1; ell <= k / 2; ++ell) {
        const auto a = sortnet::odd_even_merge_sort(m);
        const auto b = sortnet::insertion_sort(k);
        const auto abc = sandwich(a, b, a, ell);
        EXPECT_EQ(abc.width(), ell + m);
        EXPECT_TRUE(sortnet::is_sorting_network_exhaustive(abc))
            << "m=" << m << " k=" << k << " ell=" << ell;
      }
    }
  }
}

TEST(Sandwich, MaterializedStagesSort) {
  // S_1 (width 4) and S_2 (width 16) exhaustively; S_3 (width 256) via
  // randomized + threshold checks.
  EXPECT_TRUE(sortnet::is_sorting_network_exhaustive(materialize_stage(0)));
  EXPECT_TRUE(sortnet::is_sorting_network_exhaustive(materialize_stage(1)));
  EXPECT_TRUE(sortnet::is_sorting_network_exhaustive(materialize_stage(2)));
  EXPECT_TRUE(
      sortnet::is_sorting_network_randomized(materialize_stage(3), 1500, 11));
}

TEST(Sandwich, StageDepthPolylog) {
  // Theorem 2 with c = 2 (Batcher base): depth of S_j = O(log^2 w_j).
  for (int j = 1; j <= 3; ++j) {
    const auto net = materialize_stage(j);
    const double logw = std::log2(static_cast<double>(net.width()));
    EXPECT_LE(static_cast<double>(net.depth()), 3.0 * logw * logw)
        << "stage " << j;
  }
}

// ------------------------------------------------- lazy vs materialized ---

/// Drives a value through the *materialized* network from `wire` using
/// `decide(step_index)` to resolve each comparator met; returns (exit wire,
/// comparators met). Mirrors RenamingNetwork's routing rule.
std::pair<std::uint64_t, std::uint64_t> route_materialized(
    const ComparatorNetwork& net, std::uint64_t wire0,
    const std::function<bool(std::uint64_t)>& decide) {
  const auto per_wire = net.per_wire();
  std::uint32_t wire = static_cast<std::uint32_t>(wire0);
  std::uint64_t met = 0;
  std::size_t next = 0;
  for (;;) {
    const auto& list = per_wire[wire];
    auto it = std::lower_bound(list.begin(), list.end(),
                               static_cast<std::uint32_t>(next));
    if (it == list.end()) break;
    const auto& c = net.comparator(*it);
    const bool up = decide(met);
    ++met;
    wire = up ? c.lo : c.hi;
    next = *it + 1;
  }
  return {wire, met};
}

class LazyRouteEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(LazyRouteEquivalence, RouteMatchesMaterializedStage) {
  // For every input port of S_j and several deterministic decision policies,
  // the lazy walk and the materialized network visit the same number of
  // comparators and exit on the same wire.
  const int stage = GetParam();
  const ComparatorNetwork net = materialize_stage(stage);
  const AdaptiveNetwork lazy;
  const std::uint64_t half = StageGeometry::width(stage) / 2;

  for (int policy = 0; policy < 4; ++policy) {
    auto decide_by_index = [&](std::uint64_t i) {
      switch (policy) {
        case 0: return true;                    // always win
        case 1: return false;                   // always lose
        case 2: return i % 2 == 0;              // alternate
        default: return (i * 2654435761u) % 3 == 0;  // pseudo-random
      }
    };
    // Only ports <= w_j/2 are *external* inputs of the infinite network that
    // stay within S_j (deeper ports route through larger stages). Paths that
    // exit S_j below w_j/2 would continue into C_{j+1} in the infinite
    // network (not realizable without other winners), so compare only
    // contained paths — and do not run the lazy walk on escaping ones.
    for (std::uint64_t port = 1; port <= half; ++port) {
      auto [mat_wire, mat_met] =
          route_materialized(net, port - 1, decide_by_index);
      if (mat_wire + 1 > half) continue;
      std::uint64_t lazy_met = 0;
      const std::uint64_t lazy_out = lazy.route(
          port, [&](const CompRef&, bool) { return decide_by_index(lazy_met++); });
      EXPECT_EQ(lazy_out, mat_wire + 1)
          << "stage=" << stage << " port=" << port << " policy=" << policy;
      EXPECT_EQ(lazy_met, mat_met)
          << "stage=" << stage << " port=" << port << " policy=" << policy;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Stages, LazyRouteEquivalence, ::testing::Values(1, 2, 3));

TEST(AdaptiveNetwork, SequentialFirstWinsYieldsArrivalOrder) {
  // Sequential processes with first-arrival-wins comparators: the i-th
  // arrival must exit at port i (this is the renaming-network execution in
  // the absence of concurrency). Exercise ports across stage boundaries,
  // including very large temporary names.
  AdaptiveNetwork net;
  std::set<CompRef> taken;  // comparators some earlier arrival won
  std::vector<std::uint64_t> ports = {1,  2,   3,    7,    8,     9,   100,
                                      200, 255, 4000, 32768, 40000, 100000};
  std::uint64_t arrival = 0;
  for (std::uint64_t port : ports) {
    ++arrival;
    const std::uint64_t out = net.route(port, [&](const CompRef& c, bool) {
      return taken.insert(c).second;  // first visitor wins
    });
    EXPECT_EQ(out, arrival) << "port " << port;
  }
}

TEST(AdaptiveNetwork, PathLengthPolylogInPort) {
  // Theorem 2: a value entering port n and leaving at port m traverses
  // O(log^2 max(n, m)) comparators with the Batcher base. Winners exit near
  // the top, so solo traversals bound by log^2(port).
  AdaptiveNetwork net;
  auto always_win = [](const CompRef&, bool) { return true; };
  for (std::uint64_t port :
       {2u, 3u, 8u, 16u, 100u, 128u, 1000u, 32768u, 1000000u}) {
    const std::uint64_t len = net.path_length(port, always_win);
    const double logp = std::log2(static_cast<double>(port) + 2);
    EXPECT_LE(static_cast<double>(len), 6.0 * logp * logp + 8) << "port " << port;
    // Solo winner exits at port 1.
    EXPECT_EQ(net.route(port, always_win), 1u);
  }
}

TEST(AdaptiveNetwork, BoundedLossStreakStillExits) {
  // A value can only lose to winners; emulate up to L losses followed by
  // wins (the realizable pattern for a process overtaken by L others). The
  // walk must terminate at a port bounded by the losses it suffered.
  AdaptiveNetwork net;
  for (std::uint64_t losses : {0u, 1u, 3u, 7u, 15u}) {
    for (std::uint64_t port : {1u, 2u, 5u, 8u, 128u, 5000u}) {
      std::uint64_t remaining = losses;
      const std::uint64_t out = net.route(port, [&](const CompRef&, bool) {
        if (remaining > 0) {
          --remaining;
          return false;
        }
        return true;
      });
      EXPECT_GE(out, 1u);
      if (losses == 0) {
        EXPECT_EQ(out, 1u) << "an all-winning value exits at the top";
      } else {
        // Losses push the value down only boundedly: a loss inside a wide
        // sandwich wing can drop it past one stage boundary, but with L
        // losses it stays within one stage of the region owning port L+1.
        const int stage =
            std::min(StageGeometry::owning_stage(losses + 1) + 1,
                     StageGeometry::kMaxStage);
        EXPECT_LE(out, StageGeometry::width(stage) / 2)
            << "port " << port << " losses " << losses;
      }
    }
  }
}

TEST(ArbiterIndex, ConcurrentGetsOfOneComparatorShareOneObject) {
  NodePool pool;
  ArbiterIndex<std::atomic<int>> index(pool);
  const CompRef comp{CompRef::c_component(4), 100, 40000};
  constexpr int kThreads = 8;
  std::vector<std::atomic<int>*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Ctx ctx(t, 1);
      std::atomic<int>& object = index.get(ctx, comp);
      object.fetch_add(1);
      seen[t] = &object;
    });
  }
  for (auto& th : threads) th.join();
  for (auto* p : seen) EXPECT_EQ(p, seen[0]);
  EXPECT_EQ(seen[0]->load(), kThreads);
  EXPECT_EQ(index.census().comparators, 1u);
  EXPECT_EQ(index.census().blocks, 4u);  // stage 4: three pages, one chunk
}

TEST(ArbiterIndex, CountsDistinctComparatorsExactlyAcrossChunksAndPages) {
  // Eight threads touch the same comparators in opposite orders. The wires
  // straddle chunk (16 wires), page (256) and second-level page (4096)
  // boundaries, in several phases and components, including the base S_0.
  std::vector<CompRef> comps{{CompRef::base_component(), 0, 0}};
  for (std::uint32_t component : {CompRef::a_component(2), CompRef::c_component(3)}) {
    for (std::uint64_t lo = 0; lo < 14; ++lo) comps.push_back({component, 0, lo});
  }
  for (std::uint32_t phase : {0u, 1u, 135u}) {
    for (std::uint64_t lo : {0u, 1u, 15u, 16u, 17u, 255u, 256u, 4095u, 4096u,
                             4097u, 65280u, 65407u}) {
      comps.push_back({CompRef::a_component(4), phase, lo});
    }
  }
  NodePool pool;
  ArbiterIndex<std::atomic<int>> index(pool);
  constexpr int kThreads = 8;
  std::vector<std::vector<std::atomic<int>*>> seen(
      kThreads, std::vector<std::atomic<int>*>(comps.size(), nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Ctx ctx(t, 1);
      for (std::size_t i = 0; i < comps.size(); ++i) {
        const std::size_t k = (t % 2 == 0) ? i : comps.size() - 1 - i;
        std::atomic<int>& object = index.get(ctx, comps[k]);
        object.fetch_add(1);
        seen[t][k] = &object;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(index.census().comparators, comps.size());
  std::set<std::atomic<int>*> distinct;
  const Ctx reader(kThreads, 1);
  for (std::size_t k = 0; k < comps.size(); ++k) {
    for (int t = 1; t < kThreads; ++t) ASSERT_EQ(seen[t][k], seen[0][k]) << k;
    EXPECT_EQ(&index.get(reader, comps[k]), seen[0][k]) << k;
    EXPECT_EQ(seen[0][k]->load(), kThreads) << k;
    distinct.insert(seen[0][k]);
  }
  EXPECT_EQ(distinct.size(), comps.size());
  EXPECT_EQ(index.census().comparators, comps.size());  // re-gets claim nothing
}

TEST(ArbiterIndex, StageFiveComparatorCostsDepthNotWidth) {
  // C_5 spans 2^32 - 2^15 wires in 528 phases. Its last phase's comparator
  // near the bottom wire needs seven radix pages and one chunk, no more.
  const AdaptiveNetwork net;
  const sortnet::LazyOddEven& wing = net.wing(5);
  ASSERT_EQ(wing.phase_count(), 528u);
  const std::uint64_t lo = wing.width() - 3;
  const auto hit = wing.hit(lo, 527);
  ASSERT_TRUE(hit.has_value() && hit->is_lo);
  NodePool pool;
  ArbiterIndex<tas::TwoProcessTas> index(pool);
  const CompRef comp{CompRef::c_component(5), 527, lo};
  Ctx solo(0, 1);
  EXPECT_TRUE(index.get(solo, comp).compete(solo, 0));
  EXPECT_EQ(index.census().comparators, 1u);
  EXPECT_EQ(index.census().blocks, 8u);
  // Its chunk neighbour adds a claim but no block; the same comparator in
  // another component shares nothing.
  (void)index.get(solo, CompRef{CompRef::c_component(5), 527, lo - 1});
  EXPECT_EQ(index.census().blocks, 8u);
  (void)index.get(solo, CompRef{CompRef::a_component(5), 527, lo});
  EXPECT_EQ(index.census().comparators, 3u);
  EXPECT_EQ(index.census().blocks, 16u);
  EXPECT_FALSE(index.get(solo, comp).compete(solo, 1));  // the same object, decided
}

TEST(AdaptiveNetwork, RenamingMaterializesOneArbiterPerComparatorMet) {
  // Hardware arbiters decide in one traced step, and the first process to
  // step on an arbiter wins it. So the trace of a seeded sim run gives every
  // process's decisions, and replaying its walk names each comparator met.
  renaming::AdaptiveStrongRenaming::Options options;
  options.comparators = renaming::AdaptiveComparatorKind::kHardware;
  renaming::AdaptiveStrongRenaming renaming(options);
  constexpr int k = 24;
  std::vector<renaming::AdaptiveStrongRenaming::Outcome> outs(k);
  sim::RandomAdversary adversary(17);
  sim::RunOptions run;
  run.seed = 17;
  run.record_trace = true;
  const auto result = sim::run_simulation(
      k,
      [&](Ctx& ctx) {
        outs[ctx.pid()] = renaming.rename_instrumented(ctx, ctx.pid() + 1);
      },
      adversary, run);
  ASSERT_EQ(result.finished_count(), static_cast<std::size_t>(k));

  std::set<const void*> arbiters;
  std::vector<std::vector<std::pair<const void*, bool>>> decisions(k);
  for (const auto& ev : result.trace.events()) {
    if (ev.kind != sim::TraceEvent::Kind::kStep ||
        ev.info.kind != OpKind::kTestAndSet) {
      continue;
    }
    const bool first = arbiters.insert(ev.info.object).second;
    decisions[ev.pid].emplace_back(ev.info.object, first);
  }

  using Identity = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;
  std::map<Identity, const void*> arbiter_of;
  for (int p = 0; p < k; ++p) {
    std::size_t i = 0;
    const std::uint64_t name = renaming.network().route(
        outs[p].temp_name, [&](const CompRef& c, bool) {
          const auto [object, won] = decisions[p].at(i++);
          const auto it =
              arbiter_of.emplace(Identity{c.component, c.phase, c.lo}, object).first;
          EXPECT_EQ(it->second, object) << "one comparator, two arbiters";
          return won;
        });
    EXPECT_EQ(name, outs[p].name) << "pid " << p;
    EXPECT_EQ(i, decisions[p].size()) << "pid " << p;
    EXPECT_EQ(i, outs[p].comparators) << "pid " << p;
  }
  EXPECT_EQ(arbiter_of.size(), arbiters.size()) << "one arbiter, two comparators";
  EXPECT_EQ(renaming.materialized_comparators(), arbiter_of.size());
}

class AdaptiveRenamingThreads
    : public ::testing::TestWithParam<renaming::AdaptiveComparatorKind> {};

TEST_P(AdaptiveRenamingThreads, TightNamesAndTwoWalkersPerArbiter) {
  // Each arbiter flavor has its own instantiation of the walk. Under real
  // threads, 4 x 256 renames of one object take exactly the names 1..1024,
  // and each arbiter materialized was met by one or two walkers, since
  // every comparator is a two-process test-and-set.
  renaming::AdaptiveStrongRenaming::Options options;
  options.comparators = GetParam();
  renaming::AdaptiveStrongRenaming renaming(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 256;
  std::vector<std::vector<std::uint64_t>> names(kThreads);
  std::vector<std::uint64_t> met(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Ctx ctx(t, 1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const auto out = renaming.rename_instrumented(
            ctx, static_cast<std::uint64_t>(t * kPerThread + i + 1));
        names[t].push_back(out.name);
        met[t] += out.comparators;
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<std::uint64_t> all;
  for (const auto& per_thread : names) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i + 1);

  std::uint64_t total_met = 0;
  for (const std::uint64_t m : met) total_met += m;
  const std::uint64_t arbiters = renaming.materialized_comparators();
  EXPECT_LE(arbiters, total_met);
  EXPECT_LE(total_met, 2 * arbiters);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AdaptiveRenamingThreads,
    ::testing::Values(renaming::AdaptiveComparatorKind::kRandomized,
                      renaming::AdaptiveComparatorKind::kHardware),
    [](const auto& info) {
      return info.param == renaming::AdaptiveComparatorKind::kRandomized
                 ? "Randomized"
                 : "Hardware";
    });

}  // namespace
}  // namespace renamelib::adaptive
