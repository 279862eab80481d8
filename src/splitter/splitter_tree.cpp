#include "splitter/splitter_tree.h"

#include "core/assert.h"

namespace renamelib::splitter {

Acquisition SplitterTree::acquire(Ctx& ctx, std::uint64_t id) {
  LabelScope label{ctx, "splitter_tree/acquire"};
  Node* node = nodes_.root();
  std::uint64_t bfs = 1;
  int depth = 0;
  for (;;) {
    if (node->splitter.acquire(ctx, id) == SplitterOutcome::kStop) {
      return Acquisition{bfs, depth};
    }
    const int dir = ctx.rng().coin() ? 1 : 0;
    node = nodes_.child(ctx, node, dir);
    bfs = 2 * bfs + static_cast<std::uint64_t>(dir);
    ++depth;
  }
}

const SplitterTree::Node* SplitterTree::node_at(std::uint64_t bfs_index) const {
  RENAMELIB_ENSURE(bfs_index >= 1, "BFS indices are 1-based");
  // Recover the root->node path from the bits of the index.
  int bits = 63;
  while (bits > 0 && ((bfs_index >> bits) & 1) == 0) --bits;
  const Node* node = nodes_.root();
  for (int b = bits - 1; b >= 0 && node != nullptr; --b) {
    node = node->child[(bfs_index >> b) & 1].load();
  }
  return node;
}

}  // namespace renamelib::splitter
