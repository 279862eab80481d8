#include "tas/rat_race_tas.h"

#include <vector>

#include "core/assert.h"

namespace renamelib::tas {

bool RatRaceTas::test_and_set(Ctx& ctx) {
  LabelScope label{ctx, "ratrace/tas"};
  const std::uint64_t id = static_cast<std::uint64_t>(ctx.pid()) + 1;

  // Phase 1: descend until a splitter is acquired, remembering the path.
  std::vector<std::pair<Node*, int>> path;  // (parent, direction taken)
  Node* node = nodes_.root();
  {
    LabelScope descend{ctx, "ratrace/descend"};
    while (node->splitter.acquire(ctx, id) != splitter::SplitterOutcome::kStop) {
      const int dir = ctx.rng().coin() ? 1 : 0;
      path.emplace_back(node, dir);
      node = nodes_.child(ctx, node, dir);
    }
  }

  // Phase 2: tournament climb. As the owner of `node` we enter side 1 of its
  // owner TAS; from then on we are the champion of a subtree and play side 0.
  LabelScope climb{ctx, "ratrace/climb"};
  if (!node->owner_tas.compete(ctx, /*side=*/1)) return false;
  while (!path.empty()) {
    const auto [parent, dir] = path.back();
    path.pop_back();
    // Champion of parent's `dir` subtree: left champ is side 0.
    if (!parent->children_tas.compete(ctx, dir)) return false;
    if (!parent->owner_tas.compete(ctx, /*side=*/0)) return false;
  }
  return true;  // champion of the root
}

}  // namespace renamelib::tas
