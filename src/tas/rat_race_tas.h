// RatRace — adaptive n-process randomized test-and-set (Alistarh et al.
// [12]), the implementation the paper plugs into BitBatching (Sec. 4) and
// cites for its O(log^2 k) w.h.p. step bound (Sec. 2).
//
// Structure (faithful to [12]):
//   1. Descent: the process walks a randomized splitter tree until it
//      acquires a node — depth O(log k) w.h.p.
//   2. Tournament climb: every tree node carries two two-process TAS
//      objects. champion(v) is the winner of owner_tas(v), played between
//      the winner of children_tas(v) (side 0: left- vs right-subtree
//      champion) and the process that acquired v's splitter (side 1). The
//      process climbs from its node toward the root, remaining in the race
//      while it keeps winning; the champion of the root wins the RatRace.
//
// At most one process wins (every edge is arbitrated by a two-process TAS
// with uniquely assigned sides); a solo process acquires the root splitter
// and wins immediately. Expected steps O(log k); O(log^2 k) w.h.p.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/lazy.h"
#include "splitter/splitter.h"
#include "tas/tas.h"
#include "tas/two_process_tas.h"

namespace renamelib::tas {

class RatRaceTas final : public ITas {
 public:
  RatRaceTas() = default;
  /// A RatRace whose tree nodes come from `pool`, an enclosing object's.
  explicit RatRaceTas(NodePool& pool) : pool_(pool) {}

  /// Competes; returns true iff this process is the unique winner.
  /// Uses ctx.pid() (must be unique across participants) as splitter id.
  bool test_and_set(Ctx& ctx) override;

  /// Number of tree nodes materialized so far (quiescent diagnostic).
  std::size_t materialized() const noexcept { return nodes_.size(); }

 private:
  struct Node {
    splitter::Splitter splitter;
    TwoProcessTas children_tas;  ///< left-subtree champ (0) vs right (1)
    TwoProcessTas owner_tas;     ///< children champ (0) vs splitter owner (1)
    std::atomic<Node*> child[2] = {nullptr, nullptr};
  };

  // Lazily materialized in pool_; the paper assumes the unbounded tree
  // pre-exists in shared memory, so a node's allocation is not a protocol
  // step.
  NodePool pool_;
  LazyTree<Node> nodes_{pool_};
};

}  // namespace renamelib::tas
