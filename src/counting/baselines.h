// Baseline counting objects the benches compare against.
//
//   * AtomicCounter / AtomicFai — single fetch_add register: the "hardware"
//     reference point (1 step/op, linearizable).
//   * MaxRegTreeCounter — the deterministic linearizable counter of Aspnes,
//     Attiya & Censor [17] that Sec. 8.1 compares against: a binary tree
//     over the n processes with exact single-writer counts at the leaves
//     and max registers at internal nodes; increments update the root path
//     bottom-up, reads read the root. O(log n * log m) steps per increment —
//     the log-factor the paper's monotone counter removes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "counting/max_register.h"
#include "core/register.h"

namespace renamelib::counting {

/// Linearizable counter backed by one fetch-and-add register (1 step/op).
class AtomicCounter {
 public:
  void increment(Ctx& ctx) { value_.fetch_add(ctx, 1); }
  std::uint64_t read(Ctx& ctx) { return value_.load(ctx); }
  std::uint64_t fetch_and_increment(Ctx& ctx) { return value_.fetch_add(ctx, 1); }

 private:
  Register<std::uint64_t> value_{0};
};

/// The [17] linearizable counter (see file comment). `n` = process count;
/// `capacity` bounds the counter value.
class MaxRegTreeCounter {
 public:
  MaxRegTreeCounter(std::size_t n, std::uint64_t capacity);

  /// Increments on behalf of ctx.pid() (leaf ownership; single writer).
  void increment(Ctx& ctx);
  std::uint64_t read(Ctx& ctx);

 private:
  std::size_t leaves_;  ///< n rounded up to a power of two
  std::uint64_t capacity_;
  std::unique_ptr<RegisterArray<std::uint64_t>> leaf_counts_;
  // Heap-indexed internal nodes 1..leaves_-1, each a max register.
  std::vector<std::unique_ptr<MaxRegister>> nodes_;
};

}  // namespace renamelib::counting
