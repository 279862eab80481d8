#include "tas/two_process_tas.h"

#include "core/assert.h"

namespace renamelib::tas {

bool TwoProcessTas::compete(Ctx& ctx, int side) {
  RENAMELIB_ENSURE(side == 0 || side == 1, "side must be 0 or 1");
  LabelScope label{ctx, "2tas/compete"};
  Register<std::uint32_t>& mine = pos_[side];
  Register<std::uint32_t>& theirs = pos_[1 - side];

  std::uint32_t pos = 1;  // the initial 0 was this side's position-0 round
  mine.store(ctx, pos);
  for (;;) {
    const std::uint32_t other = theirs.load(ctx);
    if (other > pos) return false;     // strictly behind: lose
    if (pos - other >= 2) return true;  // two ahead: win
    // One ahead: advance. Tied: advance on heads, else look again.
    if (other == pos && !ctx.rng().coin()) continue;
    mine.store(ctx, ++pos);
  }
}

}  // namespace renamelib::tas
