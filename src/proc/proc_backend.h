/// \file
/// \brief Backend::kProc — the multi-process execution substrate.
///
/// run_proc() fork()s Scenario::nproc worker processes over the current
/// ShmArena. The shared object under test was placement-constructed into
/// that arena (ArenaScope), so every process operates on the *same* flat
/// atomic words — the paper's asynchronous shared-memory processes made
/// literal, crash failures included:
///
///   parent                       worker p
///   ------                       --------
///   Layout::create(arena)
///   derive crash plan (seed)
///   fork() × N  ─────────────▶   start barrier (all N, stamps start_ns)
///                                metered op loop:
///                                  metrics, latency → mailbox[p] slot
///                                  publish_op → ring[p] (crash-surviving)
///                                  victim at crash_at[p] ops: park, spin
///   supervise until all reaped:
///     parked victim → SIGKILL ─▶  (victim dies mid-run, for real)
///     survivor exit 0 + ready ◀──  publish_done → mailbox, _exit(0)
///   fold survivors' mailboxes,
///   pid order → Run
///
/// A worker's mailbox holds its result slot (api::Contribution, the type
/// every backend's metered loop writes in place), so the aggregates
/// (Run::metrics, latency, events, proc_steps) are the parent's one fold of
/// the survivors' slots, through the same Contribution::fold_into the other
/// backends use; a SIGKILLed victim's slot is never marked ready and is not
/// folded. The per-op sample rings (Run::ops) are read for every worker,
/// victims included: a killed process's completed ops are exactly what the
/// facet conformance predicates must see (a killed worker's acquired names
/// stay held).
///
/// Survivor results feed the *unchanged* conformance predicates; the lease
/// broker's epoch-tagged per-pid slots make a victim's escrowed range
/// reclaimable by any live process (LeaseBroker::reclaim), which the proc
/// crash tests assert drains holders() to zero.
#pragma once

#include <cstddef>
#include <functional>

#include "api/workload.h"
#include "proc/mailbox.h"

namespace renamelib::proc {

/// Arena bytes that comfortably hold the proc layout for `s` plus a
/// registry-built object (pages are touched lazily, so generous is cheap).
std::size_t default_arena_bytes(const api::Scenario& s);

/// Runs `body` (one call per process, pid-indexed Ctx, the process's
/// mailbox slot) in s.nproc forked processes over ShmArena::current(), then
/// fills `run` from the survivors' mailboxes and every worker's op ring. Requires a live arena; the object the body
/// closes over must live inside it. Crash injection per s.crashes: victims
/// are SIGKILLed at seed-derived op counts, reaped, and counted in
/// run.crashed_procs. Aborts, naming the worker, if a victim dies any other
/// way or a survivor exits without publish_done or with a nonzero status.
void run_proc(const api::Scenario& s,
              const std::function<void(Ctx&, api::Contribution&)>& body,
              api::Run& run);

/// Worker-side publication hooks. current() is non-null exactly inside a
/// proc-backend child; the workload's metered loop publishes each completed
/// op and, last, its finished mailbox slot through it.
class Worker {
 public:
  /// This process's hooks, or nullptr outside a proc worker.
  static Worker* current() noexcept;

  /// Publishes one completed op into the crash-surviving ring and then, if
  /// this worker is a crash victim that just reached its seed-derived op
  /// count, parks forever awaiting the parent's SIGKILL (never returns in
  /// that case).
  void publish_op(std::uint64_t value, std::uint64_t steps, const char* kind);

  /// Completes the mailbox slot the body filled (the process's total
  /// paper-model steps, its wall time from the shared start stamp, the
  /// event-bus delta relative to the fork point) and marks it ready. The
  /// worker exits as soon as its body returns, so this is its last act.
  void publish_done(std::uint64_t proc_steps);

  /// Constructed once per child process by the backend's child entry point
  /// (captures the fork-time event-bus baseline); not for general use.
  Worker(const Layout& layout, int pid, std::int64_t crash_at);

 private:
  Layout layout_;
  int pid_;
  std::int64_t crash_at_;  ///< ops until park-for-SIGKILL; 0 = survivor
  std::uint64_t ops_done_ = 0;
  obs::EventSnapshot events_at_fork_;
  const char* last_kind_ = nullptr;  ///< memoized kind → table index
  std::uint32_t last_kind_ix_ = 0;
};

}  // namespace renamelib::proc
