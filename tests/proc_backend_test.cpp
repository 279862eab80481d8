// The multi-process backend end to end: forked workers over a shared arena,
// the parent's fold of the survivors' mailboxes, and real SIGKILL crash
// injection.
//
//   * crash-free exactness — the folded aggregate equals the per-process
//     sums bit-for-bit (op counts, step sums, latency count),
//   * event oracle — bitonic_countnet's balancer traversals are
//     data-independent, so the folded kNetBalancer count must equal
//     ops × depth exactly, for any process count,
//   * the kMaxProcs edge — 64 workers with one killed fill every mailbox
//     and crash-plan slot, and nproc = kMaxProcs + 1 is refused before any
//     fork,
//   * supervision — a survivor that exits without publishing its
//     contribution aborts the run, naming the worker,
//   * conformance sweep — every registry entry passes the same facet
//     oracles as on the other backends (fuzz::run_case), with and without
//     a worker SIGKILLed mid-run, including the entries that grow shared
//     state mid-operation: their NodePool captured the arena at
//     construction, so a node one worker builds is the node every other
//     worker finds (a private copy would hand out duplicate values),
//   * kill-victim lease reclaim — a worker SIGKILLed at a seed-derived op
//     count leaves survivors passing the unchanged churn predicates, and
//     quiescent reclaim drains the victim's escrowed ranges to
//     holders() == 0 (the ISSUE's acceptance schedule).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "api/leases.h"
#include "api/registry.h"
#include "api/workload.h"
#include "conformance_sweep.h"
#include "lease/lease_broker.h"
#include "obs/event_bus.h"
#include "obs/sites.h"
#include "proc/proc_backend.h"
#include "proc/shm_arena.h"

namespace renamelib::proc {
namespace {

using api::Backend;
using api::Facet;
using api::Registry;

using api::Scenario;
using api::Workload;

Scenario proc_scenario(int nproc, int ops, std::uint64_t seed) {
  Scenario s;
  s.backend = Backend::kProc;
  s.nproc = nproc;
  s.ops_per_proc = ops;
  s.seed = seed;
  return s;
}

TEST(ProcBackend, CrashFreeCounterAggregateIsExact) {
  const Scenario s = proc_scenario(4, 64, 11);
  const api::Run run =
      Workload::run_facet_spec(Facet::kCounter, "atomic_fai", s);
  const std::uint64_t total = 4 * 64;

  // The folded op count equals the per-process sums bit-for-bit: every
  // ring sample is accounted for, nothing double-counted.
  EXPECT_EQ(run.metrics.ops, total);
  EXPECT_EQ(run.ops.size(), total);
  EXPECT_EQ(run.finished_procs, 4u);
  EXPECT_EQ(run.crashed_procs, 0u);
  EXPECT_EQ(run.proc_steps.size(), 4u);
  EXPECT_GT(run.metrics.wall_seconds, 0.0);
  EXPECT_EQ(run.latency.count(), total);

  // Summing the per-op ring samples reproduces the folded step total.
  std::uint64_t step_sum = 0;
  for (const api::OpSample& op : run.ops) step_sum += op.steps;
  EXPECT_EQ(step_sum, run.metrics.steps);

  // A shared fetch-add hands out exactly [0, total): N processes minting
  // from one counter word proves the arena pages really are shared.
  const auto values = run.values();
  const std::set<std::uint64_t> distinct(values.begin(), values.end());
  EXPECT_EQ(distinct.size(), total);
  EXPECT_EQ(*distinct.begin(), 0u);
  EXPECT_EQ(*distinct.rbegin(), total - 1);

  // Each process published its full ring, attributed to its own pid.
  std::map<int, std::uint64_t> per_pid;
  for (const api::OpSample& op : run.ops) per_pid[op.pid] += 1;
  ASSERT_EQ(per_pid.size(), 4u);
  for (const auto& [pid, n] : per_pid) {
    EXPECT_EQ(n, 64u) << "pid " << pid;
  }
}

TEST(ProcBackend, FoldedEventsMatchTheBalancerOracle) {
  // kNetBalancer fires once per balancer traversal and bitonic networks are
  // data-independent: every op crosses exactly `depth` balancers, so the
  // event count is a closed-form oracle. Derive depth from a 1-process run,
  // then demand the 4-process folded count match it exactly.
  obs::EventBus::set_enabled(true);
  obs::EventBus::instance().reset();

  const api::Run r1 = Workload::run_facet_spec(
      Facet::kCounter, "bitonic_countnet", proc_scenario(1, 8, 3));
  const std::uint64_t traversals1 = r1.events.count(obs::Site::kNetBalancer);
  ASSERT_GT(traversals1, 0u);
  ASSERT_EQ(traversals1 % 8, 0u);
  const std::uint64_t depth = traversals1 / 8;

  const api::Run r4 = Workload::run_facet_spec(
      Facet::kCounter, "bitonic_countnet", proc_scenario(4, 8, 3));
  EXPECT_EQ(r4.events.count(obs::Site::kNetBalancer), depth * 4 * 8);

  obs::EventBus::set_enabled(false);
}

TEST(ProcBackend, MaxProcsCounterRunIsExact) {
  // kMaxProcs workers, one SIGKILLed: the last mailbox, ring and crash-plan
  // slot are all in use.
  Scenario s = proc_scenario(kMaxProcs, 4, 13);
  s.crashes.max_crashes = 1;
  const api::Run run =
      Workload::run_facet_spec(Facet::kCounter, "atomic_fai", s);
  const std::uint64_t survivors = kMaxProcs - 1;

  EXPECT_EQ(run.crashed_procs, 1u);
  EXPECT_EQ(run.finished_procs, survivors);
  EXPECT_EQ(run.proc_steps.size(), survivors);
  EXPECT_EQ(run.metrics.ops, survivors * 4);
  EXPECT_EQ(run.latency.count(), survivors * 4);
  // The victim completed 1..4 ops before its kill, all in its ring.
  EXPECT_GT(run.ops.size(), survivors * 4);
  EXPECT_LE(run.ops.size(), std::size_t{kMaxProcs} * 4);
  std::map<int, std::uint64_t> per_pid;
  for (const api::OpSample& op : run.ops) per_pid[op.pid] += 1;
  EXPECT_EQ(per_pid.size(), std::size_t{kMaxProcs});
  const auto values = run.values();
  const std::set<std::uint64_t> distinct(values.begin(), values.end());
  EXPECT_EQ(distinct.size(), values.size());
}

TEST(ProcBackendDeathTest, MoreThanMaxProcsIsRefusedBeforeFork) {
  EXPECT_DEATH(
      {
        const Scenario s = proc_scenario(kMaxProcs + 1, 1, 1);
        ShmArena arena(default_arena_bytes(s), s.seed);
        api::Run run;
        run_proc(s, [](Ctx&, api::Contribution&) {}, run);
      },
      "at most kMaxProcs processes");
}

TEST(ProcBackendDeathTest, UnpublishedSurvivorAbortsNamingTheWorker) {
  // Workers 0 and 2 publish; worker 1 returns without publish_done and
  // exits 0, which the parent must refuse rather than wait out.
  EXPECT_DEATH(
      {
        const Scenario s = proc_scenario(3, 1, 1);
        ShmArena arena(default_arena_bytes(s), s.seed);
        api::Run run;
        run_proc(
            s,
            [](Ctx& ctx, api::Contribution&) {
              if (ctx.pid() == 1) return;
              Worker::current()->publish_done(0);
            },
            run);
      },
      "worker 1 exited without publishing its contribution");
}

// The proc leg of the conformance sweep (tests/conformance_sweep.h): every
// registry entry and extra spec in forked workers, judged by fuzz::run_case
// with the same oracles as the other backends, crash-free and with workers
// SIGKILLed mid-run. The lazily built structures grow their nodes in the
// shared arena mid-operation; a node private to one worker would hand out
// duplicate values.
using conformance::Conformance;

TEST_P(Conformance, JudgedByRunCase) { conformance::judge(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Proc, Conformance, ::testing::ValuesIn(conformance::legs({Backend::kProc})),
    conformance::leg_name);

TEST(ProcCrash, VictimDiesBySigkillAndSurvivorsStayExact) {
  Scenario s = proc_scenario(6, 24, 41);
  s.crashes.max_crashes = 2;
  const api::Run run =
      Workload::run_facet_spec(Facet::kCounter, "atomic_fai", s);

  EXPECT_EQ(run.crashed_procs, 2u);
  EXPECT_EQ(run.finished_procs, 4u);
  // The folded aggregates are survivors-only (a killed process never
  // publishes its mailbox): exactly the four finishers' ops.
  EXPECT_EQ(run.metrics.ops, 4u * 24u);
  // The crash-surviving rings additionally carry the victims' completed
  // ops: more samples than the folded count, fewer than a full run.
  EXPECT_GT(run.ops.size(), 4u * 24u);
  EXPECT_LT(run.ops.size(), 6u * 24u);
  // Uniqueness must hold across survivors *and* the victims' published
  // ops — a SIGKILLed process's minted values were really handed out.
  const auto values = run.values();
  const std::set<std::uint64_t> distinct(values.begin(), values.end());
  EXPECT_EQ(distinct.size(), values.size());
}

TEST(ProcCrash, KilledLeaseHolderEscrowIsReclaimedToZeroHolders) {
  // The ISSUE's acceptance schedule: kill -9 a worker mid-churn, then show
  // (a) survivors pass the unchanged facet predicates and (b) the victim's
  // escrowed range is returned by quiescent reclaim, draining holders() to
  // exactly zero. The object is built under an explicit ArenaScope (not
  // run_*_spec) because it must outlive the run for the parent-side
  // reclaim — the manual placement pattern run_*_spec automates.
  Registry::global();  // materialize the registry outside the arena
  Scenario s = proc_scenario(6, 12, 5);
  s.crashes.max_crashes = 2;

  ShmArena arena(default_arena_bytes(s), s.seed);
  std::unique_ptr<api::IRenaming> obj;
  {
    ArenaScope scope(arena);
    obj = Registry::global().make_renaming(
        "lease:quota=4,procs=8,reclaim=0,inner=[longlived:cap=64]");
  }
  auto* adapter = dynamic_cast<api::LeasedRenamingAdapter*>(obj.get());
  ASSERT_NE(adapter, nullptr);

  const api::Run run = Workload(s).run_ops([&obj](Ctx& ctx) {
    const std::uint64_t n = obj->acquire(ctx);
    obj->release(ctx, n);
    return n;
  });
  EXPECT_EQ(run.crashed_procs, 2u);
  EXPECT_EQ(run.finished_procs, 4u);

  // Unchanged facet predicates over the churn: names stay in the
  // quota-scaled inner bound, for survivors and victims alike.
  for (const std::uint64_t v : run.values()) {
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 4u * 64u);
  }

  // Quiescent reclaim seizes every partially drained lease — the SIGKILLed
  // holders' escrowed ranges included; a third scan finds nothing left.
  Ctx quiescent(7, 105);
  (void)adapter->impl().reclaim(quiescent);
  (void)adapter->impl().reclaim(quiescent);
  EXPECT_EQ(adapter->impl().reclaim(quiescent), 0u);
  EXPECT_EQ(obj->holders(), 0u);

  // Arena discipline: the placed object dies before its arena.
  obj.reset();
}

}  // namespace
}  // namespace renamelib::proc
