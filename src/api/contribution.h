/// \file
/// \brief api::Contribution — the per-process result slot every backend
/// writes.
///
/// The slot holds the rich telemetry types themselves (api::Metrics,
/// stats::LatencySnapshot, obs::EventSnapshot are all trivially copyable),
/// so the proc backend can place it in a shared-memory mailbox and the
/// parent's fold of the survivors' slots equals the per-process sums exactly.
#pragma once

#include <cstdint>
#include <type_traits>

#include "api/metrics.h"
#include "obs/event_bus.h"
#include "stats/latency_snapshot.h"

namespace renamelib::api {

struct Run;

/// One process's result slot, indexed by pid — the same type on every
/// backend. The process's metered loop writes its own slot in place (on the
/// proc backend the slot is its Mailbox in shared memory; on hardware and
/// in the simulator an entry of a heap array), and the harness folds the
/// slots into the Run once, in pid order (fold_into). Every payload is
/// additive, so the fold is exact: the Run equals the per-process sums.
struct alignas(64) Contribution {
  /// Ops, steps and per-op maxima; at completion also the process's total
  /// steps (max_proc_steps) and, on the proc backend, its wall time from the
  /// shared start stamp (wall_seconds; the fold keeps the maximum).
  Metrics metrics;
  stats::LatencySnapshot latency;  ///< sampled per-op wall-clock latency
  obs::EventSnapshot events;       ///< proc backend: the worker's bus delta
  double proc_steps = 0;           ///< total steps; set at completion

  /// Marks the process finished with `steps` total paper-model steps.
  void finish(std::uint64_t steps) {
    proc_steps = static_cast<double>(steps);
    metrics.max_proc_steps = steps;
  }

  /// Adds this slot to `run`: metrics, latency and events always (a
  /// crashed simulated process's completed ops count), the proc_steps row
  /// and the finished count only if the process `finished` its body.
  void fold_into(Run& run, bool finished) const;
};
static_assert(std::is_trivially_copyable_v<Contribution>,
              "a result slot crosses the process boundary as raw bytes");

}  // namespace renamelib::api
