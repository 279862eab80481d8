// Linearizable l-test-and-set (Sec. 8.2, Algorithm 1).
//
// Generalizes test-and-set to exactly l winners: the first l operations (in
// linearization order) return true, the rest false. Implementation: run the
// adaptive strong renaming protocol behind a doorway bit; win iff the
// acquired name is <= l; a loser closes the doorway on the way out, so
// later arrivals cannot sneak into the namespace and (Lemma 5) the object
// linearizes. Expected O(log k) steps.
#pragma once

#include <cstdint>

#include "core/register.h"
#include "renaming/adaptive_strong.h"

namespace renamelib::counting {

class LTestAndSet {
 public:
  explicit LTestAndSet(std::uint64_t l)
      : LTestAndSet(l, renaming::AdaptiveStrongRenaming::Options{}) {}
  LTestAndSet(std::uint64_t l,
              renaming::AdaptiveStrongRenaming::Options options);
  /// An object whose renaming draws its nodes from `pool`, an enclosing
  /// object's.
  LTestAndSet(NodePool& pool, std::uint64_t l,
              renaming::AdaptiveStrongRenaming::Options options);

  std::uint64_t l() const noexcept { return l_; }

  /// One-shot per identity: each call mints a fresh identity internally.
  /// Returns true for exactly the first l linearized operations.
  bool test_and_set(Ctx& ctx);

 private:
  std::uint64_t l_;
  Register<std::uint8_t> doorway_closed_{0};
  renaming::AdaptiveStrongRenaming renaming_;
};

}  // namespace renamelib::counting
