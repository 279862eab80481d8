// TempName — stage one of the strong adaptive renaming algorithm (Sec. 6.2).
//
// Each process descends the randomized splitter tree and adopts the BFS
// index of the splitter it acquires as a *temporary* name. Guarantees
// (paper, citing [12, 25]):
//   (1) with k participants, names are in 1..k^c with probability
//       >= 1 - 1/k^{c-1} for a constant c > 1,
//   (2) step complexity is O(log k) w.h.p.
//
// Temporary names are unique in every execution (splitter safety), which is
// all the second stage needs for correctness; the polynomial bound only
// matters for complexity.
#pragma once

#include <cstdint>

#include "splitter/splitter_tree.h"

namespace renamelib::splitter {

class TempName {
 public:
  TempName() = default;
  /// A TempName whose tree nodes come from `pool`, an enclosing object's.
  explicit TempName(NodePool& pool) : tree_(pool) {}

  /// Returns this process's unique temporary name (>= 1). `id` must be
  /// nonzero and unique per process (its original, unbounded identifier).
  std::uint64_t get_name(Ctx& ctx, std::uint64_t id);

  /// Underlying tree (diagnostics and tests).
  const SplitterTree& tree() const noexcept { return tree_; }

 private:
  SplitterTree tree_;
};

}  // namespace renamelib::splitter
