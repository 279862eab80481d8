/// \file
/// \brief ICounter adapters over the concrete shared objects.
///
/// Thin by design: each adapter forwards next() to the object's native
/// operation and declares its consistency level, so the registry, harness,
/// and conformance suite can treat the whole family uniformly. The sharded
/// family's adapters live in api/sharded_counters.h.
#pragma once

#include <atomic>
#include <cstdint>

#include "api/counter.h"
#include "counting/baselines.h"
#include "counting/bounded_fai.h"
#include "counting/unbounded_fai.h"
#include "countnet/counting_network.h"
#include "renaming/adaptive_strong.h"

namespace renamelib::api {

/// The m-valued linearizable fetch-and-increment (Sec. 8.2, Theorem 6).
class BoundedFaiCounter final : public ICounter {
 public:
  /// Wraps an m-valued bounded FAI; `options` selects comparator arbitration.
  explicit BoundedFaiCounter(
      std::uint64_t m, renaming::AdaptiveStrongRenaming::Options options = {})
      : fai_(m, options) {}

  std::uint64_t next(Ctx& ctx) override { return fai_.fetch_and_increment(ctx); }
  std::uint64_t capacity() const override { return fai_.m(); }
  Consistency consistency() const override { return Consistency::kLinearizable; }

  /// The native bounded fetch-and-increment object.
  counting::BoundedFetchAndIncrement& impl() { return fai_; }

 private:
  counting::BoundedFetchAndIncrement fai_;
};

/// The epoch-chained unbounded linearizable fetch-and-increment (Sec. 9).
class UnboundedFaiCounter final : public ICounter {
 public:
  /// Wraps the unbounded FAI; `options` selects comparator arbitration.
  explicit UnboundedFaiCounter(
      renaming::AdaptiveStrongRenaming::Options options = {})
      : fai_(options) {}

  std::uint64_t next(Ctx& ctx) override { return fai_.fetch_and_increment(ctx); }
  Consistency consistency() const override { return Consistency::kLinearizable; }

  /// The native unbounded fetch-and-increment object.
  counting::UnboundedFetchAndIncrement& impl() { return fai_; }

 private:
  counting::UnboundedFetchAndIncrement fai_;
};

/// One fetch-and-add register: the 1-step/op hardware reference point.
class AtomicFaiCounter final : public ICounter {
 public:
  std::uint64_t next(Ctx& ctx) override {
    return counter_.fetch_and_increment(ctx);
  }
  Consistency consistency() const override { return Consistency::kLinearizable; }

 private:
  counting::AtomicCounter counter_;
};

/// A counting network [26] used as a counter: traverse + per-wire counter.
/// Quiescently consistent, not linearizable.
class CountingNetworkCounter final : public ICounter {
 public:
  /// Takes ownership of a constructed counting network.
  explicit CountingNetworkCounter(countnet::CountingNetwork net)
      : net_(std::move(net)) {}

  std::uint64_t next(Ctx& ctx) override {
    // Entry-wire choice is external input to the network (callers spray
    // round-robin), not protocol state — like a history recorder's clock it
    // is meta-level and charged zero steps.
    const std::size_t wire =
        spray_.fetch_add(1, std::memory_order_relaxed) % net_.width();
    return net_.next_value(ctx, wire);
  }
  Consistency consistency() const override { return Consistency::kQuiescent; }

  /// The native counting network.
  countnet::CountingNetwork& impl() { return net_; }

 private:
  countnet::CountingNetwork net_;
  std::atomic<std::uint64_t> spray_{0};
};

/// Rename-then-subtract: the Sec. 8 recipe without the doorway. Values are
/// exactly {0..T-1} per execution (adaptive tight renaming) but the object is
/// not linearizable — the Sec. 8.1 counterexample applies.
class NamingCounter final : public ICounter {
 public:
  /// Wraps a fresh adaptive strong renaming instance as a value dispenser.
  explicit NamingCounter(renaming::AdaptiveStrongRenaming::Options options = {})
      : renaming_(options) {}

  std::uint64_t next(Ctx& ctx) override {
    return renaming_.rename(ctx, ctx.mint_token()) - 1;
  }
  Consistency consistency() const override { return Consistency::kDense; }

 private:
  renaming::AdaptiveStrongRenaming renaming_;
};

}  // namespace renamelib::api
