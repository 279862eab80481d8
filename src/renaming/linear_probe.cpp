#include "renaming/linear_probe.h"

#include "core/assert.h"

namespace renamelib::renaming {

LinearProbeRenaming::LinearProbeRenaming(std::uint64_t capacity, bool hardware_tas)
    : capacity_(capacity), hardware_(hardware_tas) {
  RENAMELIB_ENSURE(capacity >= 1, "capacity must be >= 1");
  if (hardware_) {
    hw_slots_ = std::make_unique<tas::HardwareTas[]>(capacity);
  } else {
    for (std::uint64_t i = 0; i < capacity; ++i) rr_slots_.emplace_back(pool_);
  }
}

LinearProbeRenaming::Outcome LinearProbeRenaming::rename_instrumented(Ctx& ctx) {
  LabelScope label{ctx, "linear_probe/rename"};
  Outcome out;
  for (std::uint64_t slot = 0; slot < capacity_; ++slot) {
    ++out.probes;
    const bool won = hardware_ ? hw_slots_[slot].test_and_set(ctx)
                               : rr_slots_[slot].test_and_set(ctx);
    if (won) {
      out.name = slot + 1;
      return out;
    }
  }
  RENAMELIB_ENSURE(false, "linear probe capacity exhausted");
}

std::uint64_t LinearProbeRenaming::rename(Ctx& ctx, std::uint64_t /*initial_id*/) {
  return rename_instrumented(ctx).name;
}

}  // namespace renamelib::renaming
