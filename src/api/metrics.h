/// \file
/// \brief The unified metrics contract of the public API.
///
/// Every harness, bench, and test reports cost through this one struct, in
/// the paper's cost model (shared-memory operations plus one step per batch
/// of coin flips between consecutive shared operations — see core/ctx.h).
/// Per-class instrumented variants remain for algorithm-specific diagnostics
/// (probe counts, temp-name retries, ...); cross-implementation comparison
/// goes through Metrics only, so any two registered objects are measured in
/// exactly the same units.
#pragma once

#include <cstdint>

#include "core/ctx.h"

namespace renamelib::api {

/// Aggregated cost of a set of operations in the paper's cost model, plus —
/// for the hardware backend — wall-clock throughput.
struct Metrics {
  std::uint64_t ops = 0;             ///< completed operations
  std::uint64_t steps = 0;           ///< total steps, paper cost model
  std::uint64_t shared_steps = 0;    ///< total shared-memory operations
  std::uint64_t coin_flips = 0;      ///< total raw random draws
  std::uint64_t max_op_steps = 0;    ///< most expensive single operation
  std::uint64_t max_proc_steps = 0;  ///< most loaded process (total steps)
  /// Wall time of the run region: thread spawn to last join on hardware,
  /// the shared start stamp to the last survivor's publication on proc; 0 on
  /// the simulated backend, whose serialized grants make wall time
  /// meaningless.
  double wall_seconds = 0;

  /// Average paper-model steps per completed operation (0 when ops == 0).
  double mean_op_steps() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(steps) / static_cast<double>(ops);
  }

  /// Hardware wall-clock throughput across all threads (0 when wall time was
  /// not measured — i.e. on the simulated backend).
  double ops_per_sec() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(ops) / wall_seconds;
  }

  /// Combines two disjoint measurements (e.g. per-process partials). Wall
  /// times of concurrent partials overlap, so the maximum is kept.
  void merge(const Metrics& o) {
    ops += o.ops;
    steps += o.steps;
    shared_steps += o.shared_steps;
    coin_flips += o.coin_flips;
    if (o.max_op_steps > max_op_steps) max_op_steps = o.max_op_steps;
    if (o.max_proc_steps > max_proc_steps) max_proc_steps = o.max_proc_steps;
    if (o.wall_seconds > wall_seconds) wall_seconds = o.wall_seconds;
  }
};

/// Meters one operation: snapshots the Ctx counters at construction; commit()
/// charges the delta to a Metrics as a single operation.
class OpMeter {
 public:
  /// Snapshots `ctx`'s step/coin counters; the meter charges deltas from here.
  explicit OpMeter(const Ctx& ctx)
      : ctx_(ctx),
        steps_(ctx.steps()),
        shared_(ctx.shared_steps()),
        coins_(ctx.coin_flips()) {}

  /// Steps this operation has cost so far.
  std::uint64_t op_steps() const { return ctx_.steps() - steps_; }

  /// Charges everything since construction to `m` as one completed operation.
  void commit(Metrics& m) const {
    const std::uint64_t op_steps = ctx_.steps() - steps_;
    m.ops += 1;
    m.steps += op_steps;
    m.shared_steps += ctx_.shared_steps() - shared_;
    m.coin_flips += ctx_.coin_flips() - coins_;
    if (op_steps > m.max_op_steps) m.max_op_steps = op_steps;
  }

 private:
  const Ctx& ctx_;
  std::uint64_t steps_;
  std::uint64_t shared_;
  std::uint64_t coins_;
};

}  // namespace renamelib::api
