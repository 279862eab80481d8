/// \file
/// \brief The proc backend's shared-memory wire format: per-process
/// mailboxes holding each worker's result slot (api::Contribution),
/// crash-surviving op rings, and the control block (start barrier, crash
/// plan, kind table) — laid out into a ShmArena by Layout::create.
///
/// Everything here is trivially copyable, fixed-size, and self-contained
/// (no pointers), because these structures are written in one process and
/// read in another: a worker fills its Mailbox's Contribution and exits, and
/// an OpSlot written by a worker that is then SIGKILLed must still parse in
/// the parent. The slot is trivially copyable (api/contribution.h), so
/// nothing is converted crossing the boundary and the parent's fold of the
/// survivors' mailboxes equals the per-process sums exactly (the acceptance
/// bar for this backend).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "api/contribution.h"
#include "proc/shm_arena.h"

namespace renamelib::proc {

/// Upper bound on Scenario::nproc for the proc backend: the size of the
/// control block's fixed crash plan (Control::crash_at).
inline constexpr int kMaxProcs = 64;

/// Operation-kind string table in the control block. The harness uses at
/// most five kinds per run ({history_kind, "fai", "rename", "inc", "read"}).
inline constexpr int kMaxKinds = 8;
inline constexpr int kKindLen = 24;

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

/// Per-process mailbox: crash-visible progress flags plus the process's
/// result slot.
struct alignas(64) Mailbox {
  /// Ops announced into this process's ring (survives SIGKILL of the owner).
  std::atomic<std::uint64_t> published_ops{0};
  /// The owner is a crash victim spinning at its seed-derived crash point,
  /// waiting for the parent's SIGKILL.
  std::atomic<std::uint32_t> parked{0};
  /// The Contribution below is complete (set with release ordering last).
  std::atomic<std::uint32_t> ready{0};
  api::Contribution contrib;
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
