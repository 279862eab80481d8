// ICounter adapter over the sharded family (src/sharded).
//
// Same shape as api/counters.h: forward next(), declare the consistency
// level, expose the native object via impl(). The striped dispenser hands out
// a dense value prefix only at quiescence — a delayed operation can publish a
// small value after later operations completed — so it declares
// Consistency::kQuiescent.
#pragma once

#include <cstdint>

#include "api/counter.h"
#include "sharded/striped_counter.h"

namespace renamelib::api {

/// Cache-line-striped dispenser: spray-routed per-stripe fetch&add slots.
class StripedCounterAdapter final : public ICounter {
 public:
  /// Builds the underlying StripedCounter with `options`.
  explicit StripedCounterAdapter(sharded::StripedCounter::Options options)
      : counter_(options) {}

  /// Forwards to StripedCounter::next() (dispenser mode).
  std::uint64_t next(Ctx& ctx) override { return counter_.next(ctx); }

  /// Dense prefix at quiescence only; see the class comment.
  Consistency consistency() const override { return Consistency::kQuiescent; }

  /// The native object (statistic-mode increment()/read() live here).
  sharded::StripedCounter& impl() { return counter_; }

 private:
  sharded::StripedCounter counter_;
};

}  // namespace renamelib::api
