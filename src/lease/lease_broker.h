// Escrow range-leasing broker: batch-amortized id service over any dispenser.
//
// The POAC escrow-transaction idea applied to the paper's dispensers: instead
// of crossing the shared object on every request, a client pid leases a
// *range* of `quota` positions minted by one inner-dispenser operation
// (`mint` hands back ticket t, the lease covers positions
// [t*quota, (t+1)*quota)) and then serves requests thread-locally until the
// range drains. With proper quota sizing the local-serve rate approaches
// 1 - 1/quota, turning the contended hot path into a refill path crossed once
// per quota requests.
//
// Crash-aware reclaim is built into the grant representation. Each pid owns
// one word-sized *slot register* packing
//
//   epoch:16 | ticket:24 | granted:12 | end:12
//
// where [granted, end) is the still-ungranted tail of the lease (offsets
// within the ticket's range). The holder keeps its serve cursor in private
// memory and hands out positions below `granted` at zero shared steps; when
// the cursor reaches `granted` it *advances* the watermark by `window`
// positions with one CAS on its own (uncontended, padded) slot. That CAS is
// the heartbeat: a slot whose word is bit-identical across two reclaim scans
// belongs to a holder that served nothing in between — crashed, or idle. A
// reclaimer seizes such a lease by CASing `end := granted` with a bumped
// epoch and pushes the ungranted tail [granted, end) into a shared pool of
// free ranges, from which later refills are served before minting new
// tickets.
//
// The seizure race is decisive and *false positives are free*: the victim's
// next advance CAS fails (epoch moved), but everything below `granted` is
// still exclusively its own, so a live-but-idle holder merely drains its
// granted window and refills — no position is ever handed out twice, and no
// position a live holder could still serve is leaked. Only a genuinely
// crashed holder leaks, and then exactly its in-flight granted window
// [cursor, granted), which is unknowable without the dead pid's private
// cursor. The epoch bump protects the seizure CAS from A-B-A against a
// drain-and-refill that restores identical ticket/watermark bits.
//
// Every slot and pool access goes through core/Register: refills, advances,
// scans, and seizures cost paper-model steps and are schedulable (and
// crashable) by the simulator's adversary; local serves are private-memory
// reads, charged zero steps like any other local computation.
//
// Layout: no cache line is written by one pid while another pid reads it on
// the hot path. Each pid's slot register and private state sit on lines of
// their own; the configuration serve() reads on every call (options, mint,
// the slot/pool/local pointers) is written only by the constructor; and the
// meta-level counters written on refills (pool hint, refill count, pid
// watermark) share one further line with nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/ctx.h"
#include "core/register.h"

namespace renamelib::lease {

class LeaseBroker {
 public:
  /// Geometry and reclaim policy of the broker.
  struct Options {
    int procs = 128;          ///< max client pids (one slot each)
    std::uint32_t quota = 64; ///< positions per leased range, in [1, 2048]
    std::uint32_t window = 0; ///< positions granted per advance; 0 = quota/4
    std::size_t pool_slots = 16;  ///< escrow pool capacity (reclaimed ranges)
    /// Refills between stale-slot reclaim scans; 0 disables in-line reclaim
    /// (explicit reclaim() still works).
    std::uint64_t reclaim_period = 16;
    /// Tickets the inner dispenser can mint before saturating (a bounded
    /// inner counter keeps returning its last value); 0 = unbounded. Once
    /// the limit ticket appears, serve() saturates at quota*ticket_limit - 1.
    std::uint64_t ticket_limit = 0;
  };

  /// Mints one fresh range ticket from the inner dispenser (one shared
  /// crossing; e.g. ICounter::next or IRenaming::acquire - 1).
  using Mint = std::function<std::uint64_t(Ctx&)>;

  /// Running totals (meta-level diagnostics, not protocol state).
  struct Stats {
    std::uint64_t local_serves = 0;   ///< requests served at zero shared steps
    std::uint64_t advances = 0;       ///< watermark CASes (the heartbeat)
    std::uint64_t refills = 0;        ///< lease installs (pool or mint)
    std::uint64_t minted = 0;         ///< fresh tickets from the inner object
    std::uint64_t pool_grants = 0;    ///< refills served from reclaimed ranges
    std::uint64_t reclaimed_ranges = 0;     ///< successful seizures
    std::uint64_t reclaimed_positions = 0;  ///< positions returned to the pool
    std::uint64_t dropped_ranges = 0;       ///< seized with no free pool slot
  };

  LeaseBroker(Options options, Mint mint);

  /// Serves the next unique position for `ctx.pid()`: a private-memory
  /// cursor bump while the granted window lasts, an advance CAS on the own
  /// slot when it drains, a pool-or-mint refill when the lease is spent.
  /// The fast path lives here so callers inline it: a bounds check, a
  /// compare, and two adds — no shared access, no out-of-line call.
  std::uint64_t serve(Ctx& ctx) {
    const int pid = ctx.pid();
    RENAMELIB_ENSURE(pid >= 0 && pid < options_.procs,
                     "pid exceeds the lease broker's procs= geometry");
    Local& local = local_[pid];
    if (local.cursor < local.limit) {
      local.serves += 1;
      return local.base + local.cursor++;
    }
    return serve_slow(ctx, local);
  }

  /// One reclaim scan: seizes the ungranted tail of every lease whose slot
  /// word did not change since the previous scan observed it (see file
  /// comment — safe against live holders by construction). Returns the
  /// number of ranges seized. Two back-to-back calls at quiescence reclaim
  /// every partially-granted lease, crashed or idle.
  std::size_t reclaim(Ctx& ctx);

  /// Positions per leased range.
  std::uint32_t quota() const noexcept { return options_.quota; }

  /// Snapshot of the running totals (quiescently exact).
  Stats stats() const;

 private:
  /// Per-pid private state. The hot fields mirror the own slot word in
  /// unpacked form so the serve fast path is a compare and two adds — no
  /// shifts, no multiply, no shared access. Event counters live here too
  /// (owner-written, summed by stats()), keeping even the advance/refill
  /// paths free of shared statistics traffic. Padded so neighbouring pids
  /// never share a line.
  struct alignas(64) Local {
    std::uint64_t base = 0;    ///< ticket(word) * quota, cached at install
    std::uint32_t cursor = 0;  ///< next offset to serve, < limit
    std::uint32_t limit = 0;   ///< granted(word), cached at install/advance
    std::uint64_t word = 0;    ///< last own-slot word this pid installed/read
    bool saturated = false;    ///< ticket_limit hit; serve() pins the max
    std::uint64_t serves = 0;  ///< owner-written share of Stats::local_serves
    std::uint64_t advances = 0;
    std::uint64_t refills = 0;
    std::uint64_t minted = 0;
    std::uint64_t pool_grants = 0;
    std::uint64_t reclaimed_ranges = 0;
    std::uint64_t reclaimed_positions = 0;
    std::uint64_t dropped_ranges = 0;
  };

  std::uint64_t serve_slow(Ctx& ctx, Local& local);
  void refill(Ctx& ctx, int pid, Local& local);
  bool pool_pop(Ctx& ctx, std::uint64_t& entry);
  void pool_push(Ctx& ctx, std::uint64_t entry);

  // Read-mostly: written by the constructor only, read on every serve().
  Options options_;
  Mint mint_;
  /// One slot register per pid, each alone on its line: the holder's
  /// advance CAS never invalidates a neighbour's slot.
  std::unique_ptr<PaddedRegister<std::uint64_t>[]> slots_;
  std::unique_ptr<RegisterArray<std::uint64_t>> pool_;  ///< free ranges
  /// Previous scan's observation per slot (meta-level reclaim heuristic;
  /// the seizure CAS itself is what arbitrates, so racy scans are safe).
  std::unique_ptr<std::atomic<std::uint64_t>[]> last_seen_;
  std::unique_ptr<Local[]> local_;

  // Written on refills: a line of their own, so a refill on one pid never
  // invalidates the configuration another pid's serve() is reading.
  /// Conservative pool-occupancy hint: bumped before a push, decremented
  /// after a pop, so 0 proves the pool empty and a refill skips the scan.
  /// Meta-level (zero steps), same status as a counting network's spray.
  alignas(64) std::atomic<std::int64_t> pool_hint_{0};
  std::atomic<std::uint64_t> refill_count_{0};
  /// Highest pid that ever refilled: reclaim scans stop here instead of
  /// walking all `procs` slots (every lease passes through refill first, so
  /// no installed slot can hide above the watermark). Meta-level.
  std::atomic<int> max_pid_{-1};
};

}  // namespace renamelib::lease
