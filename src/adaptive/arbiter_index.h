// Direct-indexed storage for one object per comparator of the infinite
// adaptive network (Sec. 6.1), built on first touch.
//
// The paper assumes every comparator's test-and-set already exists in shared
// memory. ArbiterIndex<T> builds each T when a walker first meets its
// comparator, and finds it again from the comparator's identity alone, with
// no hashing and no probing:
//
//   component (<= 11, inline links)
//     -> phase roots (a trailing array of the component's one block, sized
//        by its phase count)
//       -> radix pages over lo >> 4 (16 links each; 1, 3 or 7 levels)
//         -> chunks of 16 T, inline, plus a 16-bit claimed mask.
//
// The radix depth is fixed per component by its width: 16^depth chunks of 16
// wires cover it. Stages 1-3 take one page level, stage 4 (65408 wires)
// three, stage 5 (~2^32 wires) seven, so a comparator anywhere in a stage-5
// wing costs O(depth) pages, never O(width). Neighbouring wires of one phase
// share a chunk and so share cache lines.
//
// Every link is filled by publish_once, a component (one block sized at run
// time) by its factory form publish_once_with, all from the NodePool the
// index is given (core/node_pool.h); nothing is allocated before the first
// get(), and nothing is freed before the pool releases its slabs. A chunk's
// claimed bit is set on the first get() of its comparator (a relaxed load,
// then fetch_or only if clear), so census() is an exact count of distinct
// comparators touched, summed by a quiescent walk. Like core/lazy.h this is
// allocator bookkeeping, not a protocol step.
//
// The 16/16 sizes are fixed, not knobs: the counting stack builds thousands
// of small renamings that each touch a few (component, phase) pairs, and
// every touched pair pays one page and one chunk.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "adaptive/adaptive_network.h"
#include "core/assert.h"
#include "core/lazy.h"

namespace renamelib::adaptive {

/// `T` must own nothing outside the pool: arbiters are never destroyed.
template <typename T>
class ArbiterIndex {
 public:
  /// An empty index whose blocks come from `pool`.
  explicit ArbiterIndex(NodePool& pool) : pool_(pool) {}
  ArbiterIndex(const ArbiterIndex&) = delete;
  ArbiterIndex& operator=(const ArbiterIndex&) = delete;

  /// The object for comparator `c`, built on first touch (`ctx` picks the
  /// pool lane). Concurrent calls for one comparator return one address,
  /// stable for the pool's life.
  T& get(const Ctx& ctx, const CompRef& c) {
    RENAMELIB_ENSURE(c.component < CompRef::component_limit(),
                     "comparator component out of range");
    Component& comp = *publish_once_with(components_[c.component], [&] {
                         return Component::make(ctx, pool_, c.component);
                       }).first;
    RENAMELIB_ENSURE(c.phase < comp.phases && (c.lo >> comp.lo_bits) == 0,
                     "comparator outside its component");
    Page* page = publish_once(ctx, pool_, comp.roots()[c.phase]).first;
    const std::uint64_t chunk = c.lo >> kBits;
    for (int shift = kBits * (comp.depth - 1); shift > 0; shift -= kBits) {
      page = publish_once<Page>(ctx, pool_, page->slot[(chunk >> shift) & kMask]).first;
    }
    Chunk& leaf = *publish_once<Chunk>(ctx, pool_, page->slot[chunk & kMask]).first;
    const auto bit = static_cast<std::uint16_t>(1u << (c.lo & kMask));
    if ((leaf.claimed.load(std::memory_order_relaxed) & bit) == 0) {
      leaf.claimed.fetch_or(bit, std::memory_order_relaxed);
    }
    return leaf.items[c.lo & kMask];
  }

  /// What the index holds so far (quiescent walk).
  struct Census {
    std::size_t comparators = 0;  ///< distinct comparators touched
    std::size_t blocks = 0;       ///< pages and chunks allocated
  };
  Census census() const {
    Census total;
    for (const auto& link : components_) {
      const Component* comp = link.load(std::memory_order_acquire);
      if (comp == nullptr) continue;
      for (std::uint32_t p = 0; p < comp->phases; ++p) {
        add(comp->roots()[p].load(std::memory_order_acquire), comp->depth, total);
      }
    }
    return total;
  }

 private:
  static constexpr int kBits = 4;  ///< 16 links per page, 16 items per chunk
  static constexpr std::uint64_t kMask = (1u << kBits) - 1;

  // A page slot links to a Page, or to a Chunk from the last page level.
  struct Node {};
  struct Page : Node {
    std::array<std::atomic<Node*>, 1u << kBits> slot{};
  };
  struct Chunk : Node {
    std::atomic<std::uint16_t> claimed{0};
    std::array<T, 1u << kBits> items{};
  };

  // One block: this header, then `phases` root links (a trailing array).
  struct alignas(std::atomic<Page*>) Component {
    static Component* make(const Ctx& ctx, NodePool& pool, std::uint32_t id) {
      // S_0 is one comparator on wires 0-1; A_j/C_j are Batcher wings.
      const int stage = static_cast<int>((id + 1) / 2);
      const std::uint64_t width = id == 0 ? 2 : StageGeometry::sandwich_width(stage);
      const std::uint32_t phases =
          id == 0 ? 1 : AdaptiveNetwork::wing(stage).phase_count();
      void* block = pool.allocate(
          ctx, sizeof(Component) + phases * sizeof(std::atomic<Page*>),
          alignof(Component));
      return ::new (block) Component(width, phases);
    }

    Component(std::uint64_t width, std::uint32_t phase_count) : phases(phase_count) {
      while (((width - 1) >> lo_bits) != 0) {
        lo_bits += kBits;
        ++depth;
      }
      std::uninitialized_value_construct_n(roots(), phases);
    }
    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    std::atomic<Page*>* roots() {
      return reinterpret_cast<std::atomic<Page*>*>(this + 1);
    }
    const std::atomic<Page*>* roots() const {
      return reinterpret_cast<const std::atomic<Page*>*>(this + 1);
    }

    std::uint32_t phases = 0;
    int depth = 1;            ///< page levels above the chunks
    int lo_bits = 2 * kBits;  ///< lo < 2^lo_bits = 16^(depth+1)
  };

  static void add(const Page* page, int depth, Census& total) {
    if (page == nullptr) return;
    ++total.blocks;
    for (const auto& s : page->slot) {
      const Node* node = s.load(std::memory_order_acquire);
      if (node == nullptr) continue;
      if (depth > 1) {
        add(static_cast<const Page*>(node), depth - 1, total);
      } else {
        ++total.blocks;
        total.comparators += static_cast<std::size_t>(std::popcount(
            static_cast<const Chunk*>(node)->claimed.load(std::memory_order_relaxed)));
      }
    }
  }

  NodePool& pool_;
  std::array<std::atomic<Component*>, CompRef::component_limit()> components_{};
};

}  // namespace renamelib::adaptive
