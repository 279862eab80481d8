/// \file
/// \brief IReadableCounter facet adapters over the concrete read/increment
/// counters.
///
/// Same shape as api/counters.h: forward increment()/read(), declare the
/// honest consistency level, expose the native object via impl().
///
///   * MonotoneCounterAdapter — the paper's Sec. 8.1 monotone counter
///     (rename, then write_max). Monotone-consistent, NOT linearizable
///     (the Sec. 8.1 three-process counterexample), so it declares
///     kMonotone.
///   * MaxRegTreeCounterAdapter — the deterministic linearizable counter of
///     Aspnes–Attiya–Censor [17] the paper compares against: single-writer
///     leaf counts under a tree of max registers. Declares kLinearizable;
///     the conformance suite Wing–Gong-checks recorded inc/read histories.
///   * StripedStatisticAdapter — StripedCounter's statistic mode: one
///     pid-striped fetch&add per increment, a full-collect read. Reads are
///     monotone across non-overlapping reads, so it declares kMonotone.
///   * CountnetReadableAdapter — a counting network's quiescent read side:
///     increment() shepherds one token through the balancers, read()
///     collects the per-wire exit counts. Exact at quiescence (the step
///     property is a statement about settled exit counts), so it declares
///     kQuiescent.
#pragma once

#include <atomic>
#include <cstdint>

#include "api/readable.h"
#include "counting/baselines.h"
#include "counting/monotone_counter.h"
#include "countnet/counting_network.h"
#include "sharded/striped_counter.h"

namespace renamelib::api {

/// The Sec. 8.1 monotone counter behind the readable facet.
class MonotoneCounterAdapter final : public IReadableCounter {
 public:
  /// Wraps a fresh monotone counter; `options` selects comparator
  /// arbitration of the inner adaptive strong renaming.
  explicit MonotoneCounterAdapter(
      renaming::AdaptiveStrongRenaming::Options options = {})
      : counter_(options) {}

  void increment(Ctx& ctx) override { counter_.increment(ctx); }
  std::uint64_t read(Ctx& ctx) override { return counter_.read(ctx); }
  Consistency consistency() const override { return Consistency::kMonotone; }

  /// The native monotone counter (instrumented increment lives here).
  counting::MonotoneCounter& impl() { return counter_; }

 private:
  counting::MonotoneCounter counter_;
};

/// The [17] deterministic linearizable counter behind the readable facet.
class MaxRegTreeCounterAdapter final : public IReadableCounter {
 public:
  /// Builds the tree for up to `n` processes with value bound `capacity`.
  MaxRegTreeCounterAdapter(std::size_t n, std::uint64_t capacity)
      : counter_(n, capacity), procs_(static_cast<int>(n)), capacity_(capacity) {}

  void increment(Ctx& ctx) override { counter_.increment(ctx); }
  std::uint64_t read(Ctx& ctx) override { return counter_.read(ctx); }
  std::uint64_t capacity() const override { return capacity_; }
  /// Leaf ownership is by pid: only pids < n may operate.
  int max_procs() const override { return procs_; }
  Consistency consistency() const override { return Consistency::kLinearizable; }

  /// The native max-register-tree counter.
  counting::MaxRegTreeCounter& impl() { return counter_; }

 private:
  counting::MaxRegTreeCounter counter_;
  int procs_;
  std::uint64_t capacity_;
};

/// StripedCounter's statistic mode behind the readable facet. Must not share
/// an instance with dispenser-mode next() use (see sharded/striped_counter.h).
class StripedStatisticAdapter final : public IReadableCounter {
 public:
  /// Builds the underlying StripedCounter with `options`.
  explicit StripedStatisticAdapter(sharded::StripedCounter::Options options)
      : counter_(options) {}

  void increment(Ctx& ctx) override { counter_.increment(ctx); }
  std::uint64_t read(Ctx& ctx) override { return counter_.read(ctx); }
  Consistency consistency() const override { return Consistency::kMonotone; }

  /// The native striped counter.
  sharded::StripedCounter& impl() { return counter_; }

 private:
  sharded::StripedCounter counter_;
};

/// A counting network [26] behind the readable facet. Entry-wire choice is
/// meta-level routing input (like CountingNetworkCounter's spray — see
/// docs/ARCHITECTURE.md "Invariants worth knowing"), charged zero steps.
class CountnetReadableAdapter final : public IReadableCounter {
 public:
  /// Takes ownership of a constructed counting network.
  explicit CountnetReadableAdapter(countnet::CountingNetwork net)
      : net_(std::move(net)) {}

  void increment(Ctx& ctx) override {
    const std::size_t wire =
        spray_.fetch_add(1, std::memory_order_relaxed) % net_.width();
    (void)net_.next_value(ctx, wire);
  }
  std::uint64_t read(Ctx& ctx) override { return net_.read_count(ctx); }
  Consistency consistency() const override { return Consistency::kQuiescent; }

  /// The native counting network.
  countnet::CountingNetwork& impl() { return net_; }

 private:
  countnet::CountingNetwork net_;
  std::atomic<std::uint64_t> spray_{0};
};

}  // namespace renamelib::api
