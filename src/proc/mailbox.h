/// \file
/// \brief The shared-memory wire format of the proc backend: POD mirrors of
/// the mergeable telemetry types (api::Metrics, stats::LatencySnapshot,
/// obs::EventSnapshot), per-process mailboxes, crash-surviving op rings, and
/// the control block (start barrier, crash plan, kind table) — laid out into
/// a ShmArena by Layout::create.
///
/// Everything here is trivially-copyable, fixed-size, and self-contained
/// (no pointers), because these structures are written in one process and
/// read in another: a worker fills its Mailbox's Contribution and exits, and
/// an OpSlot written by a worker that is then SIGKILLed must still parse in
/// the parent. The POD↔rich-type conversions are exact — LatencyPod
/// round-trips through LatencySnapshot::from_parts bit-for-bit, which is
/// what makes the parent's fold of the survivors' mailboxes equal the
/// per-process sums exactly (the acceptance bar for this backend).
#pragma once

#include <atomic>
#include <cstdint>

#include "api/metrics.h"
#include "obs/event_bus.h"
#include "proc/shm_arena.h"
#include "stats/latency_recorder.h"

namespace renamelib::proc {

/// Upper bound on Scenario::nproc for the proc backend: the size of the
/// control block's fixed crash plan (Control::crash_at).
inline constexpr int kMaxProcs = 64;

/// Operation-kind string table in the control block. The harness uses at
/// most five kinds per run ({history_kind, "fai", "rename", "inc", "read"}).
inline constexpr int kMaxKinds = 8;
inline constexpr int kKindLen = 24;

/// POD mirror of api::Metrics (wall_seconds excluded: wall time is computed
/// parent-side from the shared start stamp and the mailboxes' end stamps).
struct MetricsPod {
  std::uint64_t ops = 0;
  std::uint64_t steps = 0;
  std::uint64_t shared_steps = 0;
  std::uint64_t coin_flips = 0;
  std::uint64_t max_op_steps = 0;
  std::uint64_t max_proc_steps = 0;

  void store(const api::Metrics& m) {
    ops = m.ops;
    steps = m.steps;
    shared_steps = m.shared_steps;
    coin_flips = m.coin_flips;
    max_op_steps = m.max_op_steps;
    max_proc_steps = m.max_proc_steps;
  }

  /// Folds this partial into `m` with api::Metrics::merge semantics
  /// (sums for totals, maxima for the max_* fields).
  void merge_into(api::Metrics& m) const {
    api::Metrics o;
    o.ops = ops;
    o.steps = steps;
    o.shared_steps = shared_steps;
    o.coin_flips = coin_flips;
    o.max_op_steps = max_op_steps;
    o.max_proc_steps = max_proc_steps;
    m.merge(o);
  }
};

/// POD mirror of stats::LatencySnapshot: dense log-bucket counts plus the
/// exact moments. load() rebuilds through from_parts, so the round-trip is
/// exact (same buckets, same moments, bit-for-bit).
struct LatencyPod {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double sum = 0;
  double sum_sq = 0;
  std::uint64_t buckets[stats::LatencyBuckets::kCount] = {};

  void store(const stats::LatencySnapshot& s) {
    count = s.count();
    min = s.min();
    max = s.max();
    sum = s.sum();
    sum_sq = s.sum_sq();
    for (std::size_t i = 0; i < stats::LatencyBuckets::kCount; ++i) {
      buckets[i] = s.bucket(i);
    }
  }

  stats::LatencySnapshot load() const {
    std::vector<stats::LatencySnapshot::Bar> bars;
    for (std::size_t i = 0; i < stats::LatencyBuckets::kCount; ++i) {
      if (buckets[i] != 0) {
        bars.push_back({stats::LatencyBuckets::lower(i),
                        stats::LatencyBuckets::upper(i), buckets[i]});
      }
    }
    return stats::LatencySnapshot::from_parts(count, sum, sum_sq, min, max,
                                              bars);
  }
};

/// POD mirror of obs::EventSnapshot (the per-site monotone counters).
struct EventsPod {
  std::uint64_t counts[obs::kSiteCount] = {};

  void store(const obs::EventSnapshot& s) {
    for (std::size_t i = 0; i < obs::kSiteCount; ++i) {
      counts[i] = s.count(static_cast<obs::Site>(i));
    }
  }

  obs::EventSnapshot load() const {
    obs::EventSnapshot s;
    for (std::size_t i = 0; i < obs::kSiteCount; ++i) {
      s.set(static_cast<obs::Site>(i), counts[i]);
    }
    return s;
  }
};

/// One surviving process's finished-run result; its mailbox index is its
/// pid. The payloads are *additive*, so the parent folds each survivor's
/// Contribution exactly once, in pid order.
struct Contribution {
  double proc_steps = 0;       ///< the process's total paper-model steps
  std::uint64_t end_ns = 0;    ///< steady-clock stamp at publication
  MetricsPod metrics;
  LatencyPod latency;
  EventsPod events;
};

/// One completed operation in a process's crash-surviving ring. Written
/// slot-first, then announced by a release-increment of
/// Mailbox::published_ops — so every announced slot is fully written even
/// if the writer is SIGKILLed one instruction later.
struct OpSlot {
  std::uint64_t value = 0;
  std::uint64_t steps = 0;
  std::uint32_t kind = 0;  ///< index into Control::kinds
  std::uint32_t pad = 0;
};

/// Per-process mailbox: crash-visible progress flags plus the finished-run
/// Contribution.
struct alignas(64) Mailbox {
  /// Ops announced into this process's ring (survives SIGKILL of the owner).
  std::atomic<std::uint64_t> published_ops{0};
  /// The owner is a crash victim spinning at its seed-derived crash point,
  /// waiting for the parent's SIGKILL.
  std::atomic<std::uint32_t> parked{0};
  /// The Contribution below is complete (set with release ordering last).
  std::atomic<std::uint32_t> ready{0};
  Contribution contrib;
};

/// The shared control block: start barrier, wall-clock origin, crash plan,
/// and the operation-kind table.
struct alignas(64) Control {
  /// One-shot start barrier: workers that have arrived, and the release flag
  /// the last arrival sets.
  std::atomic<std::uint32_t> bar_count{0};
  std::atomic<std::uint32_t> bar_open{0};
  /// Steady-clock stamp taken by the barrier releaser at the start barrier —
  /// CLOCK_MONOTONIC is system-wide, so workers' end stamps subtract cleanly.
  std::atomic<std::uint64_t> start_ns{0};
  /// Seed-derived crash plan, written by the parent before fork: pid p parks
  /// for SIGKILL after completing crash_at[p] operations; 0 = survivor.
  std::int64_t crash_at[kMaxProcs] = {};
  /// Operation-kind string table (OpSlot::kind indexes it).
  std::uint32_t nkinds = 0;
  char kinds[kMaxKinds][kKindLen] = {};
};

/// Resolved addresses of the proc backend's shared regions inside a
/// ShmArena. Plain pointers are valid in parent and children alike because
/// fork() preserves the mapping address.
struct Layout {
  Control* control = nullptr;
  Mailbox* mailboxes = nullptr;  ///< nproc mailboxes
  OpSlot* rings = nullptr;       ///< nproc * ring_ops slots; null when ring_ops == 0
  int nproc = 0;
  int ring_ops = 0;  ///< ring capacity per process (0 = op samples off)

  Mailbox& mail(int p) const { return mailboxes[p]; }
  OpSlot* ring(int p) const {
    return rings + static_cast<std::size_t>(p) * static_cast<std::size_t>(ring_ops);
  }

  /// Carves all regions out of `arena` and placement-constructs them.
  static Layout create(ShmArena& arena, int nproc, int ring_ops);
  /// Bytes create() will consume (for arena sizing).
  static std::size_t bytes_for(int nproc, int ring_ops);
};

}  // namespace renamelib::proc
