#include "lease/lease_broker.h"

#include "core/assert.h"
#include "obs/emit.h"

namespace renamelib::lease {
namespace {

// Slot word layout: epoch:16 | ticket:24 | granted:12 | end:12. Word 0 is
// the idle slot (installs always carry epoch >= 1). Pool entries reuse the
// ticket/granted/end fields with epoch 0; 0 doubles as the empty sentinel
// because a pushed range always has granted < end, so end >= 1.
constexpr std::uint64_t kFieldBits12 = 0xFFFULL;
constexpr std::uint64_t kTicketBits = 0xFFFFFFULL;
constexpr std::uint64_t kMaxTicket = kTicketBits;  // 2^24 - 1
constexpr std::uint64_t kPoolEmpty = 0;

constexpr std::uint64_t pack(std::uint64_t epoch, std::uint64_t ticket,
                             std::uint64_t granted, std::uint64_t end) {
  return (epoch & 0xFFFFULL) << 48 | (ticket & kTicketBits) << 24 |
         (granted & kFieldBits12) << 12 | (end & kFieldBits12);
}

constexpr std::uint64_t epoch_of(std::uint64_t w) { return w >> 48; }
constexpr std::uint64_t ticket_of(std::uint64_t w) {
  return (w >> 24) & kTicketBits;
}
constexpr std::uint64_t granted_of(std::uint64_t w) {
  return (w >> 12) & kFieldBits12;
}
constexpr std::uint64_t end_of(std::uint64_t w) { return w & kFieldBits12; }

std::uint64_t next_epoch(std::uint64_t w) {
  const std::uint64_t e = (epoch_of(w) + 1) & 0xFFFFULL;
  return e == 0 ? 1 : e;  // epoch 0 is reserved for the idle word
}

}  // namespace

LeaseBroker::LeaseBroker(Options options, Mint mint)
    : options_(options), mint_(std::move(mint)) {
  RENAMELIB_ENSURE(options_.procs >= 1, "lease broker needs >= 1 pid slot");
  RENAMELIB_ENSURE(options_.quota >= 1 && options_.quota <= 2048,
                   "lease quota must be in [1, 2048] (12-bit offsets)");
  if (options_.window == 0) {
    options_.window = options_.quota / 4 == 0 ? 1 : options_.quota / 4;
  }
  if (options_.window > options_.quota) options_.window = options_.quota;
  RENAMELIB_ENSURE(options_.pool_slots >= 1, "lease pool needs >= 1 slot");
  slots_ = std::make_unique<PaddedRegister<std::uint64_t>[]>(
      static_cast<std::size_t>(options_.procs));
  pool_ = std::make_unique<RegisterArray<std::uint64_t>>(options_.pool_slots,
                                                         kPoolEmpty);
  last_seen_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(options_.procs));
  local_ = std::make_unique<Local[]>(static_cast<std::size_t>(options_.procs));
}

std::uint64_t LeaseBroker::serve_slow(Ctx& ctx, Local& local) {
  const int pid = ctx.pid();
  for (;;) {
    if (local.cursor < local.limit) {
      // The granted window was replenished below: the position is
      // exclusively ours at zero shared steps (base/limit mirror the packed
      // slot word, unpacked once per install/advance — see serve()).
      local.serves += 1;
      return local.base + local.cursor++;
    }
    if (local.saturated) {
      // The inner dispenser is exhausted; pin the saturating value like any
      // bounded counter does.
      return static_cast<std::uint64_t>(options_.quota) *
                 options_.ticket_limit -
             1;
    }
    const std::uint64_t w = local.word;
    if (w != 0 && granted_of(w) < end_of(w)) {
      // Advance the watermark on our own slot; the CAS doubles as the
      // heartbeat reclaim scans watch.
      const std::uint64_t g = granted_of(w) + options_.window;
      const std::uint64_t capped = g > end_of(w) ? end_of(w) : g;
      std::uint64_t expected = w;
      const std::uint64_t desired =
          pack(epoch_of(w), ticket_of(w), capped, end_of(w));
      if (slots_[pid].reg.compare_exchange(ctx, expected, desired)) {
        local.word = desired;
        local.limit = static_cast<std::uint32_t>(capped);
        local.advances += 1;
        continue;
      }
      // Seized: the observed word has end == granted under a newer epoch.
      // Everything below granted_of(w) was already ours and is spent
      // (cursor == granted here), so fall through to a refill.
      local.word = expected;
      continue;
    }
    refill(ctx, pid, local);
  }
}

void LeaseBroker::refill(Ctx& ctx, int pid, Local& local) {
  // Publish this pid into the reclaim scan's watermark before the lease can
  // exist: every installed slot sits at or below max_pid_.
  int seen = max_pid_.load(std::memory_order_relaxed);
  while (pid > seen &&
         !max_pid_.compare_exchange_weak(seen, pid, std::memory_order_relaxed)) {
  }
  const std::uint64_t n =
      refill_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.reclaim_period != 0 && n % options_.reclaim_period == 0) {
    (void)reclaim(ctx);
  }
  // Re-read the slot: a seizure may have bumped the epoch past our cache,
  // and the install below must move strictly forward from whatever is there.
  const std::uint64_t current = slots_[pid].reg.load(ctx);
  std::uint64_t ticket = 0, from = 0, to = 0;
  std::uint64_t entry = 0;
  if (pool_pop(ctx, entry)) {
    ticket = ticket_of(entry);
    from = granted_of(entry);
    to = end_of(entry);
    local.pool_grants += 1;
    obs::emit(obs::Site::kLeaseRefillPool,
              static_cast<std::uint64_t>(pid) << 16 | (to - from));
  } else {
    ticket = mint_(ctx);
    if (options_.ticket_limit != 0 && ticket + 1 >= options_.ticket_limit) {
      // The inner dispenser saturated (bounded counters keep returning their
      // last value); reusing the ticket would duplicate positions.
      local.saturated = true;
      return;
    }
    RENAMELIB_ENSURE(ticket <= kMaxTicket,
                     "lease ticket space exhausted (24-bit tickets)");
    from = 0;
    to = options_.quota;
    local.minted += 1;
    obs::emit(obs::Site::kLeaseRefillMint, static_cast<std::uint64_t>(pid));
  }
  const std::uint64_t g = from + options_.window;
  const std::uint64_t capped = g > to ? to : g;
  const std::uint64_t word = pack(next_epoch(current), ticket, capped, to);
  slots_[pid].reg.store(ctx, word);
  local.word = word;
  local.cursor = static_cast<std::uint32_t>(from);
  local.base = ticket * options_.quota;
  local.limit = static_cast<std::uint32_t>(capped);
  local.refills += 1;
}

bool LeaseBroker::pool_pop(Ctx& ctx, std::uint64_t& entry) {
  if (pool_hint_.load(std::memory_order_relaxed) <= 0) return false;
  for (std::size_t i = 0; i < options_.pool_slots; ++i) {
    std::uint64_t seen = (*pool_)[i].load(ctx);
    if (seen == kPoolEmpty) continue;
    if ((*pool_)[i].compare_exchange(ctx, seen, kPoolEmpty)) {
      entry = seen;
      pool_hint_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void LeaseBroker::pool_push(Ctx& ctx, std::uint64_t entry) {
  pool_hint_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < options_.pool_slots; ++i) {
    std::uint64_t expected = kPoolEmpty;
    if ((*pool_)[i].load(ctx) != kPoolEmpty) continue;
    if ((*pool_)[i].compare_exchange(ctx, expected, entry)) return;
  }
  // No free pool slot: the range leaks (bounded by pool_slots outstanding
  // reclaims; only reachable through seizures, never the clean path).
  pool_hint_.fetch_sub(1, std::memory_order_relaxed);
  local_[ctx.pid()].dropped_ranges += 1;
  obs::emit(obs::Site::kLeaseDrop, ticket_of(entry));
}

std::size_t LeaseBroker::reclaim(Ctx& ctx) {
  RENAMELIB_ENSURE(ctx.pid() >= 0 && ctx.pid() < options_.procs,
                   "pid exceeds the lease broker's procs= geometry");
  Local& mine = local_[ctx.pid()];
  std::size_t seized = 0;
  // No slot above the refill watermark was ever installed; scanning further
  // would only churn idle words.
  const int bound = max_pid_.load(std::memory_order_relaxed) + 1;
  for (int q = 0; q < bound; ++q) {
    std::uint64_t w = slots_[q].reg.load(ctx);
    const std::uint64_t before =
        last_seen_[q].exchange(w, std::memory_order_relaxed);
    if (w == 0 || w != before) continue;  // idle, or made progress
    if (granted_of(w) >= end_of(w)) continue;  // nothing left to seize
    const std::uint64_t revoked =
        pack(next_epoch(w), ticket_of(w), granted_of(w), granted_of(w));
    std::uint64_t expected = w;
    if (!slots_[q].reg.compare_exchange(ctx, expected, revoked)) {
      continue;  // the holder advanced or refilled first — it is alive
    }
    // The ungranted tail [granted, end) of ticket_of(w) is now ours; escrow
    // it for the next refill. (A crash between the seizure and this push
    // leaks the range — crash schedules tolerate holes.)
    pool_push(ctx, pack(0, ticket_of(w), granted_of(w), end_of(w)));
    last_seen_[q].store(revoked, std::memory_order_relaxed);
    seized += 1;
    mine.reclaimed_ranges += 1;
    mine.reclaimed_positions += end_of(w) - granted_of(w);
    obs::emit(obs::Site::kLeaseSeize, static_cast<std::uint64_t>(q) << 16 |
                                          (end_of(w) - granted_of(w)));
  }
  return seized;
}

LeaseBroker::Stats LeaseBroker::stats() const {
  Stats s;
  for (int p = 0; p < options_.procs; ++p) {
    const Local& l = local_[p];
    s.local_serves += l.serves;
    s.advances += l.advances;
    s.refills += l.refills;
    s.minted += l.minted;
    s.pool_grants += l.pool_grants;
    s.reclaimed_ranges += l.reclaimed_ranges;
    s.reclaimed_positions += l.reclaimed_positions;
    s.dropped_ranges += l.dropped_ranges;
  }
  return s;
}

}  // namespace renamelib::lease
