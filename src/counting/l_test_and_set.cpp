#include "counting/l_test_and_set.h"

namespace renamelib::counting {

LTestAndSet::LTestAndSet(std::uint64_t l,
                         renaming::AdaptiveStrongRenaming::Options options)
    : l_(l), renaming_(options) {}

LTestAndSet::LTestAndSet(NodePool& pool, std::uint64_t l,
                         renaming::AdaptiveStrongRenaming::Options options)
    : l_(l), renaming_(pool, options) {}

bool LTestAndSet::test_and_set(Ctx& ctx) {
  LabelScope label{ctx, "l_tas/op"};
  if (l_ == 0) return false;  // 0 winners: trivially closed
  if (doorway_closed_.load(ctx) != 0) return false;
  const std::uint64_t name = renaming_.rename(ctx, ctx.mint_token());
  if (name <= l_) return true;
  doorway_closed_.store(ctx, 1);
  return false;
}

}  // namespace renamelib::counting
