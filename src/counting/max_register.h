// Max registers (Aspnes–Attiya–Censor [17]).
//
// A max register supports write_max(v) and read(), where read returns the
// largest value written so far; [17] gives a linearizable construction of
// cost O(log m) for capacity m: a binary tree of switch bits, where writes
// descend to the leaf for v setting the switches of right-turns bottom-up,
// and reads follow switches downward.
//
// The paper's monotone counter (Sec. 8.1) is "rename, then write_max".
#pragma once

#include <cstdint>

#include "core/lazy.h"
#include "core/register.h"

namespace renamelib::counting {

/// Bounded max register over values 0..capacity-1 (capacity rounded up to a
/// power of two). Linearizable; O(log capacity) steps per operation.
class MaxRegister {
 public:
  explicit MaxRegister(std::uint64_t capacity);
  /// A register whose switch bits come from `pool` (`ctx` picks the lane;
  /// not a step).
  MaxRegister(NodePool& pool, const Ctx& ctx, std::uint64_t capacity);

  std::uint64_t capacity() const noexcept { return capacity_; }

  /// Raises the stored maximum to at least `v` (v < capacity()).
  void write_max(Ctx& ctx, std::uint64_t v);

  /// Returns the largest value written by any linearized write_max (0 if
  /// none yet).
  std::uint64_t read(Ctx& ctx);

 private:
  static std::uint64_t rounded(std::uint64_t capacity);

  /// Heap index of the node at `level` on the root-to-leaf path of `v`.
  std::uint64_t path_node(std::uint64_t v, std::uint32_t level) const noexcept {
    return (1ULL << level) | (v >> (height_ - level));
  }

  std::uint64_t capacity_;        ///< power of two
  std::uint32_t height_;          ///< log2(capacity)
  // Heap-indexed switch bits: node 1 covers the full range, children 2i and
  // 2i+1 split it. switch set => the maximum lives in the right subtree.
  RegisterArray<std::uint8_t> switches_;
};

/// Practically-unbounded max register: values are bucketed by bit length,
/// with a lazily allocated bounded tree per bucket and a small bounded max
/// register holding the highest active bucket. Cost is O(log v) per
/// operation — the bucket index fits in 5 bits, so the top-level register
/// adds O(1). Supports values up to 2^kMaxBits - 1 (~67M), far beyond any
/// feasible increment count in an execution.
class UnboundedMaxRegister {
 public:
  UnboundedMaxRegister() = default;
  /// A register whose buckets come from `pool`, an enclosing object's.
  explicit UnboundedMaxRegister(NodePool& pool) : pool_(pool) {}

  void write_max(Ctx& ctx, std::uint64_t v);
  std::uint64_t read(Ctx& ctx);

  static constexpr std::uint32_t kMaxBits = 26;

 private:
  MaxRegister& bucket(const Ctx& ctx, std::uint32_t b);

  MaxRegister top_{kMaxBits + 2};  ///< holds 1 + highest active bucket index
  /// CAS-published on first touch in pool_ (allocator-level, not a protocol
  /// step).
  NodePool pool_;
  LazyArray<MaxRegister, kMaxBits> buckets_{pool_};
};

}  // namespace renamelib::counting
