#include "renaming/bit_batching.h"

#include <cmath>
#include <unordered_set>

#include "core/assert.h"

namespace renamelib::renaming {

namespace {
std::uint64_t ceil_log2(std::uint64_t n) {
  std::uint64_t lg = 0;
  while ((1ULL << lg) < n) ++lg;
  return lg;
}
}  // namespace

BitBatching::BitBatching(std::uint64_t n, SlotTasKind kind)
    : n_(n), kind_(kind) {
  RENAMELIB_ENSURE(n >= 2, "BitBatching needs n >= 2");
  const std::uint64_t logn = std::max<std::uint64_t>(ceil_log2(n), 1);
  // l = floor(log2(n / log n)); at least one batch.
  ell_ = 0;
  while ((1ULL << (ell_ + 1)) <= n / logn) ++ell_;
  ell_ = std::max<std::size_t>(ell_, 1);
  probes_per_batch_ = 3 * logn;

  if (kind_ == SlotTasKind::kRatRace) {
    for (std::uint64_t i = 0; i < n; ++i) ratrace_slots_.emplace_back(pool_);
  } else {
    hardware_slots_ = std::make_unique<tas::HardwareTas[]>(n);
  }
}

std::uint64_t BitBatching::batch_begin(std::size_t i) const {
  RENAMELIB_ENSURE(i >= 1 && i <= ell_, "batch index out of range");
  return n_ - n_ / (1ULL << (i - 1));
}

std::uint64_t BitBatching::batch_end(std::size_t i) const {
  RENAMELIB_ENSURE(i >= 1 && i <= ell_, "batch index out of range");
  if (i == ell_) return n_;  // last batch absorbs the tail (length ~log n)
  return n_ - n_ / (1ULL << i);
}

bool BitBatching::probe(Ctx& ctx, std::uint64_t slot) {
  if (kind_ == SlotTasKind::kRatRace) {
    return ratrace_slots_[slot].test_and_set(ctx);
  }
  return hardware_slots_[slot].test_and_set(ctx);
}

BitBatching::Outcome BitBatching::rename_instrumented(Ctx& ctx) {
  LabelScope label{ctx, "bitbatching/rename"};
  Outcome out;

  // The slot objects are one-shot per process, so a process never probes the
  // same slot twice: stage 1 samples *distinct* slots within each batch and
  // stage 2 skips slots already probed.
  std::unordered_set<std::uint64_t> probed;

  auto try_slot = [&](std::uint64_t slot) {
    probed.insert(slot);
    ++out.probes;
    if (probe(ctx, slot)) {
      out.name = slot + 1;
      return true;
    }
    return false;
  };

  // Stage 1: random probes per batch, exhaustive in the last batch.
  for (std::size_t i = 1; i <= ell_; ++i) {
    const std::uint64_t begin = batch_begin(i);
    const std::uint64_t end = batch_end(i);
    const std::uint64_t batch_size = end - begin;
    if (i < ell_ && batch_size > probes_per_batch_) {
      for (std::uint64_t t = 0; t < probes_per_batch_; ++t) {
        std::uint64_t slot;
        do {
          slot = begin + ctx.rng().below(batch_size);
        } while (probed.contains(slot));
        if (try_slot(slot)) return out;
      }
    } else {
      // Small (or last) batch: probe every slot once.
      for (std::uint64_t slot = begin; slot < end; ++slot) {
        if (try_slot(slot)) return out;
      }
    }
  }

  // Stage 2: left-to-right sweep; reached with probability <= 1/n^c.
  out.entered_stage2 = true;
  LabelScope sweep{ctx, "bitbatching/stage2"};
  for (std::uint64_t slot = 0; slot < n_; ++slot) {
    if (probed.contains(slot)) continue;  // already lost there in stage 1
    if (try_slot(slot)) return out;
  }
  RENAMELIB_ENSURE(false,
                   "all n slots taken: more than n processes participated");
}

std::uint64_t BitBatching::rename(Ctx& ctx, std::uint64_t /*initial_id*/) {
  return rename_instrumented(ctx).name;
}

}  // namespace renamelib::renaming
