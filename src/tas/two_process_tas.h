// Randomized wait-free two-process test-and-set from atomic registers.
//
// This is the racing ("pursuit") form of the Tromp–Vitányi algorithm [20]:
// each side owns a monotone position register, initially 0. The initial 0
// stands for the side's position-0 round, so a process starts by writing 1.
// After every write it reads the other side's position `other` and
//   * loses if the other side is strictly ahead (other > pos),
//   * wins if the other side is at least two behind (other <= pos - 2),
//   * advances at once if the other side is exactly one behind,
//   * on a tie (other == pos) flips a fair coin: heads advances, tails
//     reads again.
// An advance writes pos + 1 and is followed by a read; a position is stored
// only when it changes.
//
// Costs: a process running solo wins in exactly 4 steps (write 1, read 0,
// write 2, read 0) with no coin; a process arriving after the other side
// reached 2 or more loses in 2 (write 1, read). Coins are flipped only on
// ties, which need both sides inside the race at once.
//
// Safety rests on two facts about every execution, whatever the advance
// rule: (F1) each write raises the writer's position by exactly 1, starting
// from the initial 0; (F2) every decision is taken on a read that follows
// the writer's last write. Let a side finish at position a after its last
// write W, deciding on its read R (W before R).
//   * At most one winner. Say p wins at a, reading x <= a - 2 at R_p, and q
//     wins at b, reading y <= b - 2 at R_q. If W_q is after R_p, q's
//     register held x at R_p, so by F1 q wrote x + 1 <= a - 1 after R_p,
//     hence after W_p; by F2 a read follows it, and that read sees p's final
//     a > x + 1, so q loses there — contradiction. Symmetrically W_p is not
//     after R_q. So W_q precedes R_p and W_p precedes R_q: then x = b and
//     y = a, and b <= a - 2 together with a <= b - 2 is impossible.
//   * Not both lose. If p loses reading x > a and q loses reading y > b,
//     then q's register reached x, so b >= x > a, and p's reached y, so
//     a >= y > b — impossible.
//   * A process running alone wins: the other register stays 0, below its
//     position, so every read advances it until it is two ahead.
// Termination: a side two ahead wins, and a side behind loses, on its next
// read, so an undecided race is a lead of one, which the leader extends
// without a coin, or a tie, where every read flips a fresh coin. Against a
// scheduler that does not react to the coins each tie is broken with
// constant probability, so the race ends in expected O(1) steps with
// geometrically decaying tails. A scheduler that does see the coins can
// hold a side's pending advance until the other side, re-reading the tie,
// flips heads too, and so keep the race tied forever; this form is not
// wait-free against the paper's strong adaptive adversary.
//
// The two registers are held inline, so an object is 8 bytes with no heap
// allocation of its own and can live directly in a container's storage (as
// the adaptive renaming arbiters do, sixteen to a chunk of their index).
#pragma once

#include <cstdint>

#include "core/register.h"

namespace renamelib::tas {

/// One-shot two-process test-and-set. The two callers must use distinct
/// sides 0 and 1 (in a renaming network: top wire = side 0).
class TwoProcessTas {
 public:
  TwoProcessTas() = default;

  /// Competes on behalf of `side` (0 or 1). Returns true iff won.
  /// Must be called at most once per side.
  bool compete(Ctx& ctx, int side);

 private:
  // pos_[s] is the latest position published by side s (see the proof
  // above). Passing 2^32 needs ~2^32 unbroken ties, so overflow is
  // unreachable in practice.
  Register<std::uint32_t> pos_[2];
};

}  // namespace renamelib::tas
