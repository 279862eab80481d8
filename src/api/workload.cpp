#include "api/workload.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/assert.h"
#include "core/rng.h"
#include "obs/emit.h"
#include "proc/mailbox.h"
#include "proc/proc_backend.h"
#include "proc/shm_arena.h"
#include "sim/executor.h"

namespace renamelib::api {

std::vector<std::uint64_t> Run::values() const {
  std::vector<std::uint64_t> out;
  out.reserve(ops.size());
  for (const auto& op : ops) out.push_back(op.value);
  return out;
}

std::vector<std::uint64_t> Run::values_of(std::string_view kind) const {
  std::vector<std::uint64_t> out;
  for (const auto& op : ops) {
    if (op.kind == kind) out.push_back(op.value);
  }
  return out;
}

std::vector<double> Run::op_steps() const {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const auto& op : ops) out.push_back(static_cast<double>(op.steps));
  return out;
}

double Run::mean_proc_steps() const {
  if (proc_steps.empty()) return 0.0;
  double total = 0;
  for (double s : proc_steps) total += s;
  return total / static_cast<double>(proc_steps.size());
}

namespace {

std::unique_ptr<sim::Adversary> make_base_adversary(const Scenario& s) {
  switch (s.sched) {
    case Sched::kRoundRobin:
      return std::make_unique<sim::RoundRobinAdversary>();
    case Sched::kObstruction:
      return std::make_unique<sim::ObstructionAdversary>(/*budget=*/16);
    case Sched::kRandom:
      break;
  }
  // Every seeded simulated run depends on this derivation: changing it
  // changes bench/baselines/smoke.json and the claims ledger's tables.
  return std::make_unique<sim::RandomAdversary>(s.seed * 7919 + 13);
}

std::unique_ptr<sim::Adversary> make_adversary(const Scenario& s) {
  auto base = make_base_adversary(s);
  if (!s.crashes.enabled()) return base;
  // Deterministic crash plan: victims are a seed-derived subset of the pids,
  // each killed once its shared-step count reaches a threshold drawn from
  // [1, crash_step_max]. The salt keeps the plan independent of the process
  // seeds and the base adversary's stream.
  Rng rng(Rng::derive(s.seed, /*salt=*/0xC7A54ULL));
  std::vector<int> pids(static_cast<std::size_t>(s.nproc));
  for (int p = 0; p < s.nproc; ++p) pids[static_cast<std::size_t>(p)] = p;
  for (std::size_t i = pids.size(); i > 1; --i) {
    std::swap(pids[i - 1], pids[rng.below(i)]);
  }
  std::vector<std::int64_t> crash_at(static_cast<std::size_t>(s.nproc), -1);
  const std::size_t victims =
      std::min(s.crashes.max_crashes, static_cast<std::size_t>(s.nproc));
  for (std::size_t i = 0; i < victims; ++i) {
    crash_at[static_cast<std::size_t>(pids[i])] =
        static_cast<std::int64_t>(1 + rng.below(s.crashes.crash_step_max));
  }
  return std::make_unique<sim::CrashAdversary>(std::move(base),
                                               std::move(crash_at), victims);
}

}  // namespace

Run Workload::run_metered(
    const std::function<std::uint64_t(Ctx&, int)>& op,
    const std::function<const char*(int)>& kind_of) const {
  using clock = std::chrono::steady_clock;
  Run run;
  std::optional<sim::HistoryRecorder> recorder;
  if (scenario_.record_history) recorder.emplace(scenario_.nproc);
  // Hardware and proc backends are wall-clock ("timed"): every
  // latency_sample_period-th op's latency goes into the process's slot.
  const bool proc = scenario_.backend == Backend::kProc;
  const bool timed = scenario_.backend != Backend::kSimulated;
  const int sample_period = timed ? scenario_.latency_sample_period : 0;
  // Per-pid op samples on hardware and in the simulator, appended as each op
  // completes, so a crashed simulated process's completed ops survive. The
  // proc backend publishes them into its crash-surviving shm rings instead.
  // Cache-line-aligned: each vector's end pointer moves with every op.
  struct alignas(64) PidOps {
    std::vector<OpSample> ops;
  };
  std::vector<PidOps> samples(
      scenario_.keep_op_samples && !proc
          ? static_cast<std::size_t>(scenario_.nproc)
          : 0);
  // Sample kinds are only materialized when something records them.
  const bool need_kind = scenario_.record_history || scenario_.keep_op_samples;

  // Runs on a simulated process's 64 KiB fiber stack: the slot is written in
  // place, never copied (a LatencySnapshot is ~15 KiB).
  auto body = [&](Ctx& ctx, Contribution& slot) {
    std::vector<OpSample>* ops =
        samples.empty() ? nullptr
                        : &samples[static_cast<std::size_t>(ctx.pid())].ops;
    if (ops != nullptr) {
      ops->reserve(static_cast<std::size_t>(scenario_.ops_per_proc));
    }
    // Countdown instead of `i % period`: a per-op integer division is
    // measurable against nanosecond-scale batched operations. Starts at 1 so
    // op 0 is sampled, matching the old modulo phase.
    int until_sample = 1;
    for (int i = 0; i < scenario_.ops_per_proc; ++i) {
      const char* kind = need_kind ? kind_of(i) : "";
      const std::uint64_t token = recorder ? recorder->invoke() : 0;
      OpMeter meter(ctx);
      // Latency sampling every Nth op keeps the clock reads off the fast
      // path of nanosecond-scale objects (see Scenario::latency_sample_period).
      const bool sampled = sample_period > 0 && --until_sample == 0;
      if (sampled) until_sample = sample_period;
      const auto t0 = sampled ? clock::now() : clock::time_point{};
      const std::uint64_t v = op(ctx, i);
      if (sampled) {
        slot.latency.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                 t0)
                .count()));
      }
      if (recorder) recorder->respond(ctx.pid(), kind, 0, v, token);
      meter.commit(slot.metrics);
      if (proc) {
        // Ring publication + the worker's crash point: victims park for
        // SIGKILL inside this call once they complete their op quota.
        proc::Worker::current()->publish_op(v, meter.op_steps(), kind);
      } else if (ops != nullptr) {
        ops->push_back(OpSample{ctx.pid(), v, meter.op_steps(), kind});
      }
    }
    // The worker's mailbox is this slot: stamp it finished and mark it ready
    // for the parent's fold.
    if (proc) proc::Worker::current()->publish_done(ctx.steps());
  };
  execute(body, run);

  for (PidOps& p : samples) {
    run.ops.insert(run.ops.end(), std::make_move_iterator(p.ops.begin()),
                   std::make_move_iterator(p.ops.end()));
  }
  if (recorder) run.history = recorder->history();
  return run;
}

Run Workload::run_ops(const std::function<std::uint64_t(Ctx&)>& op) const {
  return run_metered([&op](Ctx& ctx, int) { return op(ctx); },
                     [this](int) { return scenario_.history_kind.c_str(); });
}

namespace {

/// Proc-backend precondition: the object's shared state must live in the
/// shm arena, or each forked process would silently mutate its own
/// copy-on-write copy. run_facet_spec arranges this; direct run(obj) callers
/// must construct `obj` under a proc::ArenaScope.
void ensure_proc_placement(const Scenario& s, const void* obj) {
  RENAMELIB_ENSURE(
      s.backend != Backend::kProc || proc::arena_owns(obj),
      "proc backend: the object must be constructed inside the ShmArena "
      "(use Workload::run_facet_spec, or build it under a proc::ArenaScope)");
}

}  // namespace

Run Workload::run(ICounter& counter) const {
  ensure_proc_placement(scenario_, &counter);
  return run_metered([&counter](Ctx& ctx, int) { return counter.next(ctx); },
                     [](int) { return "fai"; });
}

Run Workload::run(IRenaming& obj) const {
  ensure_proc_placement(scenario_, &obj);
  return run_metered([&obj](Ctx& ctx, int) { return obj.acquire(ctx); },
                     [](int) { return "rename"; });
}

Run Workload::run(IReadableCounter& counter) const {
  ensure_proc_placement(scenario_, &counter);
  RENAMELIB_ENSURE(scenario_.read_period >= 1,
                   "scenario needs read_period >= 1");
  const int period = scenario_.read_period;
  auto is_read = [period](int i) { return i % period == period - 1; };
  return run_metered(
      [&counter, is_read](Ctx& ctx, int i) -> std::uint64_t {
        if (is_read(i)) return counter.read(ctx);
        counter.increment(ctx);
        return 0;
      },
      [is_read](int i) { return is_read(i) ? "read" : "inc"; });
}

Run Workload::run_body(const std::function<void(Ctx&)>& body) const {
  RENAMELIB_ENSURE(scenario_.backend != Backend::kProc,
                   "run_body is not supported on the proc backend (no per-op "
                   "publication points for the mailbox protocol); use "
                   "run_ops");
  Run run;
  // Proc-granular run: the whole-process Ctx counters go into the slot at
  // body completion (no per-op samples, so ops stays 0).
  execute(
      [&body](Ctx& ctx, Contribution& slot) {
        body(ctx);
        slot.metrics.steps = ctx.steps();
        slot.metrics.shared_steps = ctx.shared_steps();
        slot.metrics.coin_flips = ctx.coin_flips();
      },
      run);
  return run;
}

void Workload::execute(
    const std::function<void(Ctx&, Contribution&)>& body,
    Run& run) const {
  RENAMELIB_ENSURE(scenario_.nproc > 0, "scenario needs at least one process");
  RENAMELIB_ENSURE(
      scenario_.backend != Backend::kHardware || !scenario_.crashes.enabled(),
      "crash injection requires the simulated or proc backend (a hardware "
      "thread cannot be killed mid-protocol)");
  RENAMELIB_ENSURE(!scenario_.crashes.enabled() ||
                       scenario_.crashes.crash_step_max >= 1,
                   "crash plan needs crash_step_max >= 1");
  if (scenario_.backend == Backend::kProc) {
    RENAMELIB_ENSURE(!scenario_.record_history,
                     "history recording is not supported on the proc backend "
                     "(mailboxes carry mergeable snapshots, not histories)");
    // The slots are the workers' mailboxes in the shm arena; run_proc folds
    // the survivors' ones.
    proc::run_proc(scenario_, body, run);
    return;
  }
  // Run-scoped event attribution: the bus is process-wide, so the run's
  // events are the snapshot delta across the execution (exact as long as
  // runs don't overlap, which no harness here does).
  const bool events_on = obs::EventBus::enabled();
  const obs::EventSnapshot events_before =
      events_on ? obs::EventBus::instance().snapshot() : obs::EventSnapshot{};
  const auto nproc = static_cast<std::size_t>(scenario_.nproc);
  const std::unique_ptr<Contribution[]> slots(new Contribution[nproc]);
  // Crashed processes stop at the throw and never reach finish().
  auto run_one = [&](Ctx& ctx) {
    Contribution& slot = slots[static_cast<std::size_t>(ctx.pid())];
    body(ctx, slot);
    slot.finish(ctx.steps());
  };

  if (scenario_.backend == Backend::kHardware) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(nproc);
    for (int p = 0; p < scenario_.nproc; ++p) {
      threads.emplace_back([&, p] {
        obs::ThreadPidScope pid_scope(p);
        Ctx ctx(p, Rng::derive(scenario_.seed, static_cast<std::uint64_t>(p)));
        run_one(ctx);
      });
    }
    for (auto& t : threads) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < nproc; ++p) {
      slots[p].fold_into(run, /*finished=*/true);
    }
    run.metrics.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  } else {
    auto adversary = make_adversary(scenario_);
    sim::RunOptions options;
    options.seed = scenario_.seed;
    options.max_total_steps = scenario_.max_total_steps;
    const auto result =
        sim::run_simulation(scenario_.nproc, run_one, *adversary, options);
    // Every slot counts (a crashed process's completed ops included); only
    // finished processes add a proc_steps row.
    for (std::size_t p = 0; p < nproc; ++p) {
      slots[p].fold_into(run, result.procs[p].finished);
    }
    run.crashed_procs = result.crashed_count();
    // Crashed processes never reached finish(); fold their cost into the
    // process maximum so the metrics reflect the whole execution.
    if (result.max_proc_steps() > run.metrics.max_proc_steps) {
      run.metrics.max_proc_steps = result.max_proc_steps();
    }
  }
  if (events_on) {
    run.events = obs::EventBus::instance().snapshot() - events_before;
  }
}

namespace {

/// Proc-backend spec runner: validates the spec, then creates the shm
/// arena, places the registry-built object into it (ArenaScope routes every
/// construction-time allocation there, and the object's NodePool keeps
/// drawing its lazily built nodes from it), runs, and destroys the object
/// *before* the arena — the ordering the arena's wholesale deallocation
/// requires.
template <typename MakeFn>
Run run_spec_in_arena(Facet facet, const std::string& spec, const Scenario& s,
                      const MakeFn& make) {
  // Throws on a bad spec before the arena exists, and materializes the lazy
  // registry singleton outside it.
  Registry::global().validate(facet, Spec::parse(spec));
  proc::ShmArena arena(proc::default_arena_bytes(s), s.seed);
  auto obj = [&] {
    proc::ArenaScope scope(arena);
    return make();
  }();
  Run run = Workload(s).run(*obj);
  obj.reset();
  return run;
}

}  // namespace

Run Workload::run_facet_spec(Facet facet, const std::string& spec,
                             const Scenario& s) {
  const auto run_made = [&](const auto& make) {
    if (s.backend == Backend::kProc) {
      return run_spec_in_arena(facet, spec, s, make);
    }
    return Workload(s).run(*make());
  };
  const Registry& reg = Registry::global();
  switch (facet) {
    case Facet::kCounter:
      return run_made([&] { return reg.make_counter(spec); });
    case Facet::kRenaming:
      return run_made([&] { return reg.make_renaming(spec); });
    case Facet::kReadable:
      return run_made([&] { return reg.make_readable(spec); });
  }
  throw std::invalid_argument("unknown facet");
}

}  // namespace renamelib::api
