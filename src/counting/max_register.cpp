#include "counting/max_register.h"

#include <bit>

#include "core/assert.h"

namespace renamelib::counting {

std::uint64_t MaxRegister::rounded(std::uint64_t capacity) {
  RENAMELIB_ENSURE(capacity >= 1 && capacity <= (1ULL << 26),
                   "max register capacity out of range (switch tree memory)");
  return std::bit_ceil(std::max<std::uint64_t>(capacity, 2));
}

MaxRegister::MaxRegister(std::uint64_t capacity)
    : capacity_(rounded(capacity)),
      height_(static_cast<std::uint32_t>(std::countr_zero(capacity_))),
      switches_(capacity_ - 1, 0) {}

MaxRegister::MaxRegister(NodePool& pool, const Ctx& ctx, std::uint64_t capacity)
    : capacity_(rounded(capacity)),
      height_(static_cast<std::uint32_t>(std::countr_zero(capacity_))),
      switches_(pool, ctx, capacity_ - 1, 0) {}

void MaxRegister::write_max(Ctx& ctx, std::uint64_t v) {
  RENAMELIB_ENSURE(v < capacity_, "value exceeds max register capacity");
  LabelScope label{ctx, "max_register/write"};

  // Descend to v's leaf. [17]: a write into the left subtree is suppressed
  // once the node's switch is set (a larger value is already present); a
  // write into the right subtree recurses first and sets the switch on the
  // way back up (bottom-up), so readers that see a switch always find the
  // written value below it. A suppressed subtree write ends only the descent,
  // not the write: the switch that stopped it may belong to a larger write
  // that has not yet set the switches above, so ours still sets every
  // right-turn switch above the stop, or a later reader could miss it.
  std::uint32_t depth = 0;  // levels descended
  for (; depth < height_; ++depth) {
    const bool right = ((v >> (height_ - 1 - depth)) & 1) != 0;
    if (!right && switches_[path_node(v, depth) - 1].load(ctx) != 0) break;
  }
  // The right turns above the stop are the 1-bits of v there, set bottom-up.
  for (std::uint32_t level = depth; level-- > 0;) {
    if (((v >> (height_ - 1 - level)) & 1) != 0) {
      switches_[path_node(v, level) - 1].store(ctx, 1);
    }
  }
}

std::uint64_t MaxRegister::read(Ctx& ctx) {
  LabelScope label{ctx, "max_register/read"};
  std::uint64_t node = 1;
  std::uint64_t value = 0;
  for (std::uint32_t level = 0; level < height_; ++level) {
    const bool right = switches_[node - 1].load(ctx) != 0;
    value = (value << 1) | (right ? 1 : 0);
    node = 2 * node + (right ? 1 : 0);
  }
  return value;
}

MaxRegister& UnboundedMaxRegister::bucket(const Ctx& ctx, std::uint32_t b) {
  RENAMELIB_ENSURE(b >= 1 && b < kMaxBits, "value too large for max register");
  // Bucket b holds values with bit length b+1, i.e. offsets in [0, 2^b).
  return buckets_.get(ctx, b, pool_, ctx, 1ULL << b);
}

void UnboundedMaxRegister::write_max(Ctx& ctx, std::uint64_t v) {
  if (v == 0) return;
  LabelScope label{ctx, "umax_register/write"};
  const std::uint32_t b = static_cast<std::uint32_t>(std::bit_width(v) - 1);
  // Bucket offset first, top index second: a reader that observes bucket b
  // active will find this value (or a larger one) already in the bucket.
  if (b > 0) bucket(ctx, b).write_max(ctx, v - (1ULL << b));
  top_.write_max(ctx, b + 1);
}

std::uint64_t UnboundedMaxRegister::read(Ctx& ctx) {
  LabelScope label{ctx, "umax_register/read"};
  const std::uint64_t t = top_.read(ctx);
  if (t == 0) return 0;
  const std::uint32_t b = static_cast<std::uint32_t>(t - 1);
  const std::uint64_t base = 1ULL << b;
  return b == 0 ? base : base + bucket(ctx, b).read(ctx);
}

}  // namespace renamelib::counting
