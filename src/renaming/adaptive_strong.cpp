#include "renaming/adaptive_strong.h"

#include "core/assert.h"

namespace renamelib::renaming {

namespace {

// One comparator decision per arbiter flavor: true if the walker goes up.
bool compete(Ctx& ctx, tas::TwoProcessTas& arbiter, bool entered_lo) {
  return arbiter.compete(ctx, entered_lo ? 0 : 1);
}
bool compete(Ctx& ctx, tas::HardwareTas& arbiter, bool /*entered_lo*/) {
  return arbiter.test_and_set(ctx);
}

}  // namespace

AdaptiveStrongRenaming::Arbiters AdaptiveStrongRenaming::make_arbiters(
    AdaptiveComparatorKind kind, NodePool& pool) {
  if (kind == AdaptiveComparatorKind::kHardware) {
    return Arbiters(std::in_place_index<1>, pool);
  }
  return Arbiters(std::in_place_index<0>, pool);
}

AdaptiveStrongRenaming::Options AdaptiveStrongRenaming::checked(Options options) {
  RENAMELIB_ENSURE(options.max_temp_name >= 2 &&
                       options.max_temp_name <= (1ULL << 31),
                   "max_temp_name must be in [2, 2^31]");
  return options;
}

AdaptiveStrongRenaming::AdaptiveStrongRenaming(Options options)
    : options_(checked(options)),
      arbiters_(make_arbiters(options.comparators, pool_)) {}

AdaptiveStrongRenaming::AdaptiveStrongRenaming(NodePool& pool, Options options)
    : options_(checked(options)),
      pool_(pool),
      arbiters_(make_arbiters(options.comparators, pool_)) {}

AdaptiveStrongRenaming::Outcome AdaptiveStrongRenaming::rename_instrumented(
    Ctx& ctx, std::uint64_t initial_id) {
  RENAMELIB_ENSURE(initial_id != 0, "initial ids must be nonzero");
  LabelScope label{ctx, "adaptive_strong/rename"};
  Outcome out;

  // Stage 1: temporary name from the splitter tree; re-descend in the
  // (w.h.p. negligible) case the name exceeds the supported port range.
  for (;;) {
    out.temp_name = temp_name_.get_name(ctx, initial_id);
    if (out.temp_name <= options_.max_temp_name) break;
    ++out.temp_retries;
  }

  // Stage 2: route through the adaptive renaming network. The arbiter
  // flavor is dispatched once per rename; the walk is instantiated per
  // flavor, so each comparator is a direct index lookup.
  LabelScope route{ctx, "adaptive_strong/route"};
  out.name = std::visit(
      [&](auto& arbiters) {
        return network_.route(
            out.temp_name, [&](const adaptive::CompRef& comp, bool entered_lo) {
              ++out.comparators;
              return compete(ctx, arbiters.get(ctx, comp), entered_lo);
            });
      },
      arbiters_);
  return out;
}

std::uint64_t AdaptiveStrongRenaming::rename(Ctx& ctx, std::uint64_t initial_id) {
  return rename_instrumented(ctx, initial_id).name;
}

std::size_t AdaptiveStrongRenaming::materialized_comparators() const {
  return std::visit([](const auto& index) { return index.census().comparators; },
                    arbiters_);
}

}  // namespace renamelib::renaming
