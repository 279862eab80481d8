// BitBatching (Sec. 4): non-adaptive strong renaming into exactly n names
// with O(log^2 n) test-and-set probes per process, w.h.p.
//
// The n processes share a vector of n test-and-set objects partitioned into
// batches of geometrically decreasing size (Fig. 1):
//   B_1 = first n/2 slots, B_2 = next n/4, ..., B_l ~ the last Theta(log n),
// with l = floor(log2(n / log2 n)).
//
// Stage 1: in each batch B_1..B_{l-1} the process probes 3*log2(n) uniformly
// random slots of the batch, then *every* slot of B_l, stopping at its first
// win; the slot index (1-based) is its name. Stage 2 (reached with
// probability <= 1/n^c): probe all slots 1..n left to right.
//
// The per-slot objects are RatRace adaptive TAS [12] by default (as in the
// paper), or unit-cost hardware TAS for the deterministic variant.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "renaming/renaming.h"
#include "tas/hardware_tas.h"
#include "tas/rat_race_tas.h"

namespace renamelib::renaming {

enum class SlotTasKind { kRatRace, kHardware };

class BitBatching final : public IRenaming {
 public:
  /// `n` is the (non-adaptive) namespace size and max process count; any
  /// n >= 2 is accepted (the paper assumes a power of two for exposition).
  explicit BitBatching(std::uint64_t n, SlotTasKind kind = SlotTasKind::kRatRace);

  std::uint64_t n() const noexcept { return n_; }

  /// Batch boundaries: batch i (1-based, i <= batch_count()) covers slot
  /// indices [batch_begin(i), batch_end(i)) in 0-based slot coordinates.
  std::size_t batch_count() const noexcept { return ell_; }
  std::uint64_t batch_begin(std::size_t i) const;
  std::uint64_t batch_end(std::size_t i) const;

  std::uint64_t rename(Ctx& ctx, std::uint64_t initial_id) override;

  /// Instrumented variant: reports probes (TAS objects entered) and whether
  /// stage 2 was reached — the quantities of Lemma 1 / Corollaries 1-2.
  struct Outcome {
    std::uint64_t name = 0;
    std::uint64_t probes = 0;
    bool entered_stage2 = false;
  };
  Outcome rename_instrumented(Ctx& ctx);

 private:
  bool probe(Ctx& ctx, std::uint64_t slot);

  std::uint64_t n_;
  std::size_t ell_;
  std::uint64_t probes_per_batch_;  ///< 3*ceil(log2 n)
  SlotTasKind kind_;
  NodePool pool_;  ///< every RatRace slot's tree nodes
  std::deque<tas::RatRaceTas> ratrace_slots_;
  std::unique_ptr<tas::HardwareTas[]> hardware_slots_;
};

}  // namespace renamelib::renaming
