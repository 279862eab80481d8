// Unbounded randomized splitter tree.
//
// Processes descend from the root; at each node they run the splitter. A
// STOP acquires the node; otherwise the process moves to a uniformly random
// child and retries. With k participants, the acquisition depth is O(log k)
// with high probability, so acquired node indices (breadth-first, 1-based)
// are poly(k) w.h.p. — exactly the TempName guarantee of Sec. 6.2.
//
// Nodes are materialized on demand (core/lazy.h) in the tree's NodePool:
// its own, or the enclosing object's when it is built with one. Node
// allocation is memory-allocator bookkeeping, not a protocol step: it uses a
// CAS on a node pointer that is not routed through Ctx, mirroring how the
// paper assumes an unbounded pre-allocated tree.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/lazy.h"
#include "core/register.h"
#include "splitter/splitter.h"

namespace renamelib::splitter {

/// Result of a descent.
struct Acquisition {
  std::uint64_t node_index = 0;  ///< 1-based BFS index (root = 1)
  int depth = 0;                 ///< root = 0
};

class SplitterTree {
 public:
  struct Node {
    Splitter splitter;
    std::atomic<Node*> child[2] = {nullptr, nullptr};
  };

  SplitterTree() = default;
  /// A tree whose nodes come from `pool`, an enclosing object's.
  explicit SplitterTree(NodePool& pool) : pool_(pool) {}

  /// Descends until a splitter is acquired. `id` must be nonzero and unique
  /// per process. With k participants the acquisition height is at most k
  /// (paper, Sec. 6.2) and O(log k) with high probability thanks to the
  /// random descent [25].
  Acquisition acquire(Ctx& ctx, std::uint64_t id);

  /// Node lookup by BFS index (for tests/diagnostics); nullptr if that node
  /// was never materialized.
  const Node* node_at(std::uint64_t bfs_index) const;

  /// Number of materialized nodes (quiescent).
  std::size_t materialized() const noexcept { return nodes_.size(); }

 private:
  NodePool pool_;
  LazyTree<Node> nodes_{pool_};
};

}  // namespace renamelib::splitter
