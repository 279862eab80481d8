#include "counting/bounded_fai.h"

#include <bit>

#include "core/assert.h"

namespace renamelib::counting {

std::uint64_t BoundedFetchAndIncrement::checked(std::uint64_t m) {
  RENAMELIB_ENSURE(m >= 1 && std::has_single_bit(m), "m must be a power of two");
  return m;
}

BoundedFetchAndIncrement::BoundedFetchAndIncrement(
    std::uint64_t m, renaming::AdaptiveStrongRenaming::Options options)
    : m_(checked(m)), options_(options) {}

BoundedFetchAndIncrement::BoundedFetchAndIncrement(
    NodePool& pool, std::uint64_t m,
    renaming::AdaptiveStrongRenaming::Options options)
    : m_(checked(m)), options_(options), pool_(pool) {}

std::uint64_t BoundedFetchAndIncrement::fetch_and_increment(Ctx& ctx) {
  LabelScope label{ctx, "bounded_fai/op"};
  Node* node = nodes_.root();
  std::uint64_t acc = 0;
  for (std::uint64_t l = m_; l > 1; l /= 2) {
    const int dir = node->test.test_and_set(ctx) ? 0 : 1;
    if (dir == 1) acc += l / 2;
    // A 1-valued child always returns 0, so it is never built.
    if (l / 2 > 1) node = nodes_.child(ctx, node, dir, pool_, l / 2, options_);
  }
  return acc;
}

}  // namespace renamelib::counting
