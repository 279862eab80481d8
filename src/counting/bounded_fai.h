// Linearizable m-valued fetch-and-increment (Sec. 8.2, Algorithm 2).
//
// Recursive tree: an l-valued object is an l/2-test-and-set plus two
// l/2-valued children. Winners of the test go left (values 0..l/2-1);
// losers go right and add l/2. The 1-valued leaves always return 0, so they
// are implicit: only the m-1 internal nodes exist. Once m operations have
// completed the object keeps returning m-1 (the paper's saturating
// sequential specification).
//
// Theorem 6: linearizable, O(log k log m) steps in expectation. Internal
// nodes (each containing a full adaptive renaming object) are materialized
// on first touch, so memory is proportional to the values handed out. The
// root is held inline and every node's renaming borrows the object's one
// NodePool, so construction allocates nothing.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/lazy.h"
#include "counting/l_test_and_set.h"

namespace renamelib::counting {

class BoundedFetchAndIncrement {
 public:
  /// `m` must be a power of two (the paper reduces general m to this case).
  explicit BoundedFetchAndIncrement(std::uint64_t m)
      : BoundedFetchAndIncrement(m, renaming::AdaptiveStrongRenaming::Options{}) {}
  BoundedFetchAndIncrement(std::uint64_t m,
                           renaming::AdaptiveStrongRenaming::Options options);
  /// An object whose nodes come from `pool`, an enclosing object's.
  BoundedFetchAndIncrement(NodePool& pool, std::uint64_t m,
                           renaming::AdaptiveStrongRenaming::Options options);
  std::uint64_t m() const noexcept { return m_; }

  /// Returns the next counter value (0, 1, 2, ..., saturating at m-1).
  std::uint64_t fetch_and_increment(Ctx& ctx);

  /// Nodes materialized so far (quiescent diagnostic).
  std::size_t materialized_nodes() const noexcept { return nodes_.size(); }

  const NodePool& pool() const noexcept { return pool_; }

 private:
  struct Node {
    Node(NodePool& pool, std::uint64_t l,
         const renaming::AdaptiveStrongRenaming::Options& options)
        : test(pool, l / 2, options) {}
    LTestAndSet test;  ///< l/2-test-and-set for an l-valued node
    std::atomic<Node*> child[2] = {nullptr, nullptr};
  };

  static std::uint64_t checked(std::uint64_t m);

  std::uint64_t m_;
  renaming::AdaptiveStrongRenaming::Options options_;
  NodePool pool_;
  LazyTree<Node> nodes_{pool_, pool_, m_, options_};
};

}  // namespace renamelib::counting
