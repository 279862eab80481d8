/// \file
/// \brief The unified workload harness: one scenario description, every
/// backend, every facet.
///
/// A Scenario says *how* to run (process count, ops per process, hardware
/// threads or the adversarial simulator, adversary strategy, crash plan,
/// seed); the Workload runs any registered object — counter, renaming, or
/// readable counter — or any free-form body under it and reports the one
/// Metrics contract. On the hardware backend the Run additionally carries
/// wall-clock throughput (Metrics::ops_per_sec) and a tail-faithful per-op
/// latency recording (Run::latency, a stats::LatencySnapshot).
/// Benches sweep scenarios over the Registry's facet tables; tests assert
/// object invariants on the collected values and (optionally)
/// Wing–Gong-checkable histories.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/contribution.h"
#include "api/counter.h"
#include "api/metrics.h"
#include "api/readable.h"
#include "api/registry.h"
#include "api/renaming.h"
#include "obs/event_bus.h"
#include "sim/linearizability.h"
#include "stats/latency_snapshot.h"

namespace renamelib::api {

/// Which execution substrate runs the scenario's processes.
enum class Backend {
  kHardware,   ///< real threads, wall-clock interleavings
  kSimulated,  ///< deterministic adversarial scheduler (sim/)
  /// Forked OS processes over a POSIX shared-memory arena (src/proc). The
  /// object under test must be placement-constructed inside the arena
  /// (proc::ArenaScope); run_facet_spec does this automatically. The parent
  /// folds the survivors' mailboxes into the Run, and crash plans SIGKILL
  /// real processes (see proc/proc_backend.h).
  kProc,
};

/// Adversary strategy for the simulated backend. Any strategy can
/// additionally inject crashes via Scenario::crashes (sim::CrashAdversary
/// wraps the chosen strategy).
enum class Sched {
  kRandom,       ///< uniformly random enabled process each step
  kRoundRobin,   ///< fixed rotation over enabled processes
  kObstruction,  ///< runs one process solo as long as possible
};

/// Crash-injection plan layered over the Sched strategy (simulated and proc
/// backends — the hardware backend cannot kill a thread mid-protocol).
/// Victims and crash points are derived deterministically from
/// Scenario::seed: on the simulated backend each victim dies once its
/// shared-step count reaches a threshold drawn from [1, crash_step_max]; on
/// the proc backend the same derivation stream picks victims and the
/// threshold becomes a completed-*operation* count (folded into
/// [1, ops_per_proc]) at which the worker process is SIGKILLed for real.
/// Both model the paper's t < n crash failures.
struct CrashPlan {
  std::size_t max_crashes = 0;        ///< processes to crash; 0 disables
  std::uint64_t crash_step_max = 12;  ///< crash thresholds drawn from [1, this]

  /// True iff this plan injects any crashes.
  bool enabled() const { return max_crashes > 0; }
};

/// Describes one run: who executes, how often, under which scheduler.
struct Scenario {
  int nproc = 4;                          ///< processes (threads) to run
  int ops_per_proc = 1;                   ///< operations per process
  Backend backend = Backend::kSimulated;  ///< execution substrate
  Sched sched = Sched::kRandom;           ///< adversary (simulated backend)
  CrashPlan crashes;                      ///< crash injection (sim and proc)
  std::uint64_t seed = 1;                 ///< RNG + adversary seed
  /// Fill Run::history with real-time operation intervals, checkable by
  /// sim::is_linearizable.
  bool record_history = false;
  /// Operation kind recorded by run_ops (the sequential specs in
  /// sim/linearizability.h match on it). run(ICounter&) records "fai",
  /// run(IRenaming&) "rename", and run(IReadableCounter&) "inc"/"read"
  /// regardless.
  std::string history_kind = "op";
  /// Keep per-op samples (Run::ops). Turn off for high-volume throughput
  /// runs: metrics and the latency recording stay exact while memory stays
  /// O(1) in the op count — validation then goes through object-side
  /// invariants (e.g. IRenaming::holders) instead of Run::values().
  bool keep_op_samples = true;
  /// Readable-counter mix: every read_period-th operation is a read() (3 =
  /// the historical 2:1 inc/read mix; 1 = reads only). Must be >= 1.
  int read_period = 3;
  /// Hardware backend: record one wall-clock latency sample every N ops
  /// (1 = every op, the default). For batch-amortized objects whose fast
  /// path is a few nanoseconds (the lease wrapper), the two clock reads per
  /// op dominate the operation itself; sampling keeps the recording
  /// tail-faithful at period granularity while the loop stays tight. 0
  /// disables latency recording entirely.
  int latency_sample_period = 1;
  /// Simulated backend: abort runaway executions after this many steps.
  std::uint64_t max_total_steps = 50'000'000;
};

/// One completed operation.
struct OpSample {
  int pid = 0;
  std::uint64_t value = 0;    ///< counter value / acquired name / read result
  std::uint64_t steps = 0;    ///< paper-model steps this op cost
  std::string kind;           ///< operation kind ("fai", "rename", "inc", ...)
};

/// Outcome of running one object under one scenario.
struct Run {
  Metrics metrics;                      ///< aggregate cost, unified contract
  std::vector<OpSample> ops;            ///< completed ops, pid by pid
  std::vector<sim::Operation> history;  ///< only when record_history
  std::vector<double> proc_steps;       ///< finished procs' steps, pid order
  std::size_t finished_procs = 0;       ///< bodies that ran to completion
  std::size_t crashed_procs = 0;        ///< bodies killed by crash injection
  /// Hardware and proc backends: sampled per-op wall-clock latency in
  /// nanoseconds (every Scenario::latency_sample_period-th op; log-bucketed,
  /// no tail loss, O(1) memory in the op count). Each process records into
  /// its own result slot and the slots are merged in pid order; on the proc
  /// backend only survivors' slots count. Empty (count 0) on the simulated
  /// backend, whose serialized grants make wall time meaningless.
  stats::LatencySnapshot latency;
  /// Per-site event counts this run produced on the process-wide
  /// obs::EventBus (the delta across execute(), so concurrent runs on other
  /// threads would bleed in — benches and renamectl run one at a time). All
  /// zero unless the bus was enabled (obs::EventBus::set_enabled) before the
  /// run; the default-off bus keeps hot paths at one load + branch.
  obs::EventSnapshot events;

  /// All completed ops' values (convenience for invariant checks).
  std::vector<std::uint64_t> values() const;
  /// Completed ops' values restricted to one kind, in ops order (pid by
  /// pid, each process's in program order).
  std::vector<std::uint64_t> values_of(std::string_view kind) const;
  /// Per-op paper-model step counts (for stats::summarize).
  std::vector<double> op_steps() const;
  /// Mean of proc_steps.
  double mean_proc_steps() const;
};

/// Runs objects or free-form bodies under a Scenario on either backend.
class Workload {
 public:
  /// Captures the scenario; run*() calls share it.
  explicit Workload(Scenario scenario) : scenario_(scenario) {}

  /// The scenario this workload runs.
  const Scenario& scenario() const { return scenario_; }

  /// Each process performs ops_per_proc next() calls (kind "fai").
  Run run(ICounter& counter) const;

  /// Each process performs ops_per_proc acquire() calls and holds every
  /// name (kind "rename") — the uniqueness/tightness scenario. Churn
  /// scenarios (acquire-release cycles) go through run_ops with a free-form
  /// body.
  Run run(IRenaming& obj) const;

  /// Mixed readable workload: every third operation (i % 3 == 2) is a
  /// read() (kind "read", value = the observed count), the rest are
  /// increment() (kind "inc", value 0). Recorded histories use the same
  /// kinds as sim::CounterSpec, so linearizable readables are
  /// Wing–Gong-checkable.
  Run run(IReadableCounter& counter) const;

  /// Generic harness: ops_per_proc invocations of `op` per process, each
  /// metered into the unified Metrics. `op` returns the operation's value.
  Run run_ops(const std::function<std::uint64_t(Ctx&)>& op) const;

  /// Free-form body, one per process; metered at process granularity only.
  Run run_body(const std::function<void(Ctx&)>& body) const;

  /// Constructs `spec` under `facet` from the global registry and runs the
  /// facet's standard workload (counters: next(); renamings: hold-all
  /// acquires; readables: the read_period inc/read mix). On the proc backend
  /// the object is placed in the shared-memory arena first; an invalid spec
  /// throws std::invalid_argument before the arena is made.
  static Run run_facet_spec(Facet facet, const std::string& spec,
                            const Scenario& s);

 private:
  /// Shared metered loop: `op(ctx, i)` runs the process's i-th operation,
  /// `kind_of(i)` names it (for OpSample::kind and recorded histories).
  Run run_metered(const std::function<std::uint64_t(Ctx&, int)>& op,
                  const std::function<const char*(int)>& kind_of) const;
  /// Runs `body(ctx, slot)` once per process on the scenario's backend,
  /// where `slot` is that process's own result slot, then folds the slots
  /// into `run` in pid order.
  void execute(const std::function<void(Ctx&, Contribution&)>& body,
               Run& run) const;

  Scenario scenario_;
};

}  // namespace renamelib::api
