#include "sharded/striped_counter.h"

#include "core/assert.h"

namespace renamelib::sharded {

StripedCounter::StripedCounter(Options options) : options_(options) {
  RENAMELIB_ENSURE(options_.stripes >= 1, "stripes must be >= 1");
  slots_ = std::make_unique<PaddedRegister<std::uint64_t>[]>(options_.stripes);
}

void StripedCounter::increment(Ctx& ctx) {
  const std::size_t stripe =
      static_cast<std::size_t>(ctx.pid()) % options_.stripes;
  slots_[stripe].reg.fetch_add(ctx, 1);
}

std::uint64_t StripedCounter::read(Ctx& ctx) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < options_.stripes; ++i) {
    sum += slots_[i].reg.load(ctx);
  }
  return sum;
}

std::uint64_t StripedCounter::next(Ctx& ctx) {
  const std::uint64_t ticket = spray_.fetch_add(ctx, 1);
  const std::uint64_t stripe = ticket % options_.stripes;
  const std::uint64_t rank = slots_[stripe].reg.fetch_add(ctx, 1);
  return rank * options_.stripes + stripe;
}

}  // namespace renamelib::sharded
