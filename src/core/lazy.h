// Lazy materialization of the paper's "pre-existing" unbounded objects.
//
// The paper assumes its unbounded trees and object families already exist in
// shared memory. The code builds each node on first touch instead: load the
// link, and if it is empty build a candidate in the object's NodePool
// (core/node_pool.h) and CAS-publish it; a loser of the race adopts the
// winner's, and its own candidate stays unused in the pool. This is
// allocator bookkeeping, not a protocol step: the Ctx only picks the pool's
// lane.
//
// Everything here is insert-only and lock-free. No node is ever destroyed:
// the pool releases node memory wholesale. A pool built inside an
// ArenaScope draws from the shared arena, so a node a forked worker builds
// mid-operation is shared with every other worker.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "core/node_pool.h"

namespace renamelib {

/// Returns the object at `link`, first CAS-installing the one `make()`
/// builds if the link is empty. `make` returns a pointer, into a NodePool,
/// to a type the link can hold; it runs only when the link was seen empty.
/// Exactly one racer installs; `.second` is true for it.
template <typename Base, typename Make>
auto publish_once_with(std::atomic<Base*>& link, Make&& make) {
  using Made = std::remove_pointer_t<std::invoke_result_t<Make&>>;
  static_assert(std::is_convertible_v<Made*, Base*>, "link cannot hold this type");
  Base* existing = link.load(std::memory_order_acquire);
  if (existing != nullptr) {
    return std::pair<Made*, bool>{static_cast<Made*>(existing), false};
  }
  Made* fresh = make();
  if (link.compare_exchange_strong(existing, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return std::pair<Made*, bool>{fresh, true};
  }
  return std::pair<Made*, bool>{static_cast<Made*>(existing), false};
}

/// publish_once_with for a new T(args...) in `pool`.
/// T defaults to the link's pointee; a link to a base class may name the
/// derived type it holds, publish_once<Derived>(...), and every user of that
/// link must name the same one.
template <typename T = void, typename Base, typename... Args,
          typename Made = std::conditional_t<std::is_void_v<T>, Base, T>>
std::pair<Made*, bool> publish_once(const Ctx& ctx, NodePool& pool,
                                    std::atomic<Base*>& link, Args&&... args) {
  return publish_once_with(link, [&] {
    return pool.make<Made>(ctx, std::forward<Args>(args)...);
  });
}

/// A lazily grown binary tree. `Node` carries `std::atomic<Node*> child[2]`;
/// the root is held inline, every other node is built in `pool` on first
/// touch.
template <typename Node>
class LazyTree {
 public:
  template <typename... Args>
  explicit LazyTree(NodePool& pool, Args&&... root_args)
      : pool_(pool), root_(std::forward<Args>(root_args)...) {}
  LazyTree(const LazyTree&) = delete;
  LazyTree& operator=(const LazyTree&) = delete;

  Node* root() noexcept { return &root_; }
  const Node* root() const noexcept { return &root_; }

  /// `parent`'s child in direction `dir`, built as Node(args...) on first touch.
  template <typename... Args>
  Node* child(const Ctx& ctx, Node* parent, int dir, Args&&... args) {
    const auto [node, installed] =
        publish_once(ctx, pool_, parent->child[dir], std::forward<Args>(args)...);
    if (installed) count_.fetch_add(1, std::memory_order_relaxed);
    return node;
  }

  /// Nodes materialized so far, root included.
  std::size_t size() const noexcept { return count_.load(std::memory_order_relaxed); }

 private:
  NodePool& pool_;
  Node root_;
  std::atomic<std::size_t> count_{1};
};

/// A fixed-length array of lazily built objects, each published once.
template <typename T, std::size_t N>
class LazyArray {
 public:
  explicit LazyArray(NodePool& pool) : pool_(pool) {}
  LazyArray(const LazyArray&) = delete;
  LazyArray& operator=(const LazyArray&) = delete;

  /// Element `i`, built as T(args...) on first touch. Requires i < N.
  template <typename... Args>
  T& get(const Ctx& ctx, std::size_t i, Args&&... args) {
    return *publish_once(ctx, pool_, slots_[i], std::forward<Args>(args)...).first;
  }

 private:
  NodePool& pool_;
  std::array<std::atomic<T*>, N> slots_{};
};

}  // namespace renamelib
