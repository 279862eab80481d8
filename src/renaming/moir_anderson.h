// Moir–Anderson splitter-grid renaming — the classic *deterministic*
// wait-free renaming algorithm ([5, 6, 7] in the paper's related work).
//
// A triangular grid of splitters: a process starts at the top-left corner;
// STOP acquires the current node's name, RIGHT moves right, DOWN moves
// down. With k participants every process stops within the leading
// k x k triangle, so names are at most k(k+1)/2 — deterministic, adaptive,
// but quadratically loose, and each process takes O(k) steps.
//
// This is the deterministic foil for the paper's randomized algorithms: no
// coins, namespace k(k+1)/2 and Theta(k) steps, versus randomized tight 1..k
// in polylog steps. The claims ledger (`renamectl claims`) measures it in
// its "Sec. 1 / 3: every registered renaming, head to head" comparison.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/node_pool.h"
#include "renaming/renaming.h"
#include "splitter/splitter.h"

namespace renamelib::renaming {

class MoirAndersonRenaming final : public IRenaming {
 public:
  /// Supports up to `max_processes` participants (grid side length).
  explicit MoirAndersonRenaming(std::size_t max_processes);

  std::size_t max_processes() const noexcept { return side_; }

  /// Deterministic: no coin flips. Names are in 1..k(k+1)/2 for k
  /// participants; `initial_id` must be nonzero and unique.
  std::uint64_t rename(Ctx& ctx, std::uint64_t initial_id) override;

  struct Outcome {
    std::uint64_t name = 0;
    std::uint64_t moves = 0;  ///< splitters visited
  };
  Outcome rename_instrumented(Ctx& ctx, std::uint64_t initial_id);

 private:
  /// Diagonal numbering of grid node (row, col): nodes on diagonal
  /// d = row + col get names d(d+1)/2 + 1 .. (d+1)(d+2)/2, so the first
  /// k x k triangle holds exactly the names 1..k(k+1)/2.
  std::uint64_t name_of(std::size_t row, std::size_t col) const;
  splitter::Splitter& at(const Ctx& ctx, std::size_t row, std::size_t col);

  std::size_t side_;
  /// One link per row of the triangle, filled on first touch with that
  /// row's side_ - row splitters, built in pool_. A k-participant execution
  /// reaches at most k rows, so a wide grid costs one pointer per row until
  /// a walk gets there.
  std::unique_ptr<std::atomic<splitter::Splitter*>[]> rows_;
  NodePool pool_;
};

}  // namespace renamelib::renaming
