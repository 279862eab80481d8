#include "counting/unbounded_fai.h"

#include "core/assert.h"

namespace renamelib::counting {

UnboundedFetchAndIncrement::UnboundedFetchAndIncrement(
    renaming::AdaptiveStrongRenaming::Options options)
    : options_(options) {}

std::uint64_t UnboundedFetchAndIncrement::capacity_of(std::uint64_t e) {
  return kFirstCapacity << e;
}

std::uint64_t UnboundedFetchAndIncrement::base_of(std::uint64_t e) {
  // base_e = sum of capacities of epochs 0..e-1 = kFirstCapacity*(2^e - 1).
  return kFirstCapacity * ((1ULL << e) - 1);
}

BoundedFetchAndIncrement& UnboundedFetchAndIncrement::epoch_object(
    const Ctx& ctx, std::uint64_t e) {
  RENAMELIB_ENSURE(e < kMaxEpochs, "epoch overflow (2^43 increments?)");
  return epochs_.get(ctx, e, pool_, capacity_of(e), options_);
}

std::uint64_t UnboundedFetchAndIncrement::fetch_and_increment(Ctx& ctx) {
  LabelScope label{ctx, "unbounded_fai/op"};
  for (;;) {
    const std::uint64_t e = epoch_.load(ctx);
    const std::uint64_t m = capacity_of(e);
    const std::uint64_t v = epoch_object(ctx, e).fetch_and_increment(ctx);
    if (v < m - 1) return base_of(e) + v;
    // Saturated epoch: the unique winner of the advancing CAS claims the
    // epoch's final value; everyone else retries in the next epoch.
    std::uint64_t expected = e;
    if (epoch_.compare_exchange(ctx, expected, e + 1)) {
      return base_of(e) + m - 1;
    }
  }
}

}  // namespace renamelib::counting
