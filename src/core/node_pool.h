// One allocator for every lazily built node of a shared object.
//
// The paper assumes its unbounded trees, comparator networks and object
// families already exist in shared memory. renamelib builds each node on
// first touch (core/lazy.h), and a NodePool is where that memory comes from:
//
//   * One pool per object. A top-level object owns one; every object nested
//     in it borrows it (NodePool(outer)), so a bounded fetch-and-increment,
//     its l-test-and-sets, their adaptive renamings and all their arbiters
//     draw from one set of slabs.
//   * Lanes. A pool is one word until its first allocation, which
//     CAS-publishes a state block: kLanes cache-line-padded lanes, picked by
//     ctx.pid() % kLanes, and the list of slabs the pool owns. Each lane
//     bump-allocates from its own slab with one uncontended CAS, so
//     processes on distinct lanes never write a shared line to allocate.
//     Slabs start small and double up to a cap; a request larger than the
//     next slab gets a slab of its own.
//   * No frees. A node lives until its pool dies, and the pool then releases
//     its slabs wholesale without running any node's destructor, so a node
//     must own nothing outside the pool.
//   * Slab source, captured at construction: the calling thread's ShmArena
//     inside an ArenaScope (the proc backend), else the heap. A pool built in
//     an arena keeps drawing from it after the scope closes, so a node that a
//     forked worker builds mid-operation is shared with every other worker.
//     An exhausted arena fails its RENAMELIB_ENSURE; the pool never falls
//     back to private memory.
//
// Allocation is allocator bookkeeping, not a protocol step: the Ctx only
// picks the lane, and no step is counted or gated.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "core/ctx.h"

namespace renamelib {

namespace proc {
class ShmArena;
}  // namespace proc

class NodePool {
 public:
  /// Lanes per pool: a fixed constant, not a knob.
  static constexpr std::size_t kLanes = 16;
  /// Largest alignment allocate() honours: one cache line.
  static constexpr std::size_t kMaxAlign = 64;

  /// An owning pool whose slabs come from the thread's scoped arena, if
  /// any, else from the heap. Allocates nothing.
  NodePool() noexcept;
  /// A pool that borrows `outer`'s slabs (or those of the pool `outer`
  /// itself borrows). `outer` must outlive it.
  explicit NodePool(NodePool& outer) noexcept : word_(outer.owner_word()) {}
  ~NodePool();
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// `bytes` at `align` (a power of two, at most kMaxAlign) from the lane of
  /// `ctx.pid()`. Never freed individually.
  void* allocate(const Ctx& ctx, std::size_t bytes, std::size_t align) {
    State& s = state();
    Lane& lane = s.lanes[static_cast<unsigned>(ctx.pid()) % kLanes];
    if (Slab* slab = lane.slab.load(std::memory_order_acquire)) {
      if (void* p = slab->bump(bytes, align)) return p;
    }
    return grow(s, lane, bytes, align);
  }

  /// A new T(args...) in the pool.
  template <typename T, typename... Args>
  T* make(const Ctx& ctx, Args&&... args) {
    static_assert(alignof(T) <= kMaxAlign, "over-aligned node type");
    return ::new (allocate(ctx, sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// `n` (>= 1) value-initialized T in one block.
  template <typename T>
  T* make_array(const Ctx& ctx, std::size_t n) {
    static_assert(alignof(T) <= kMaxAlign, "over-aligned node type");
    T* first = static_cast<T*>(allocate(ctx, n * sizeof(T), alignof(T)));
    std::uninitialized_value_construct_n(first, n);
    return first;
  }

  /// Whether the state block exists, i.e. anything was ever allocated.
  bool materialized() const noexcept;
  /// Slabs allocated so far (quiescent diagnostic; 0 before the first
  /// allocation).
  std::size_t slab_count() const noexcept;

 private:
  // A slab: this one-line header, then `capacity` bytes of nodes. The
  // header has the line to itself, so bumping `used` never invalidates a
  // line holding nodes other processes read.
  struct alignas(kMaxAlign) Slab {
    std::atomic<std::size_t> used{0};
    std::size_t capacity = 0;
    Slab* next = nullptr;  ///< the pool's list of owned slabs

    char* data() noexcept { return reinterpret_cast<char*>(this + 1); }
    void* bump(std::size_t bytes, std::size_t align) noexcept {
      // data() is kMaxAlign-aligned, so aligning the offset aligns the
      // address.
      std::size_t cur = used.load(std::memory_order_relaxed);
      for (;;) {
        const std::size_t at = (cur + align - 1) & ~(align - 1);
        if (at + bytes > capacity) return nullptr;
        if (used.compare_exchange_weak(cur, at + bytes,
                                       std::memory_order_relaxed)) {
          return data() + at;
        }
      }
    }
  };
  struct alignas(kMaxAlign) Lane {
    std::atomic<Slab*> slab{nullptr};
  };
  struct State {
    explicit State(proc::ShmArena* source) : arena(source) {}
    proc::ShmArena* arena;  ///< slab source; nullptr = heap
    std::atomic<Slab*> slabs{nullptr};
    Lane lanes[kLanes];
  };

  // word_ holds one of:
  //   owner | kBorrowed   a borrower (owner is an owning pool);
  //   arena | kUnbuilt    an owner before its first allocation (arena may
  //                       be null: heap);
  //   State*              an owner after it.
  static constexpr std::uintptr_t kBorrowed = 1;
  static constexpr std::uintptr_t kUnbuilt = 2;
  static constexpr std::uintptr_t kTags = kBorrowed | kUnbuilt;

  /// The owning pool: this one, or the one it borrows. The borrowed tag is
  /// fixed at construction, so a relaxed load sees it.
  NodePool& owner() noexcept {
    const std::uintptr_t w = word_.load(std::memory_order_relaxed);
    return (w & kBorrowed) != 0 ? *reinterpret_cast<NodePool*>(w & ~kTags) : *this;
  }
  std::uintptr_t owner_word() noexcept {
    return reinterpret_cast<std::uintptr_t>(&owner()) | kBorrowed;
  }
  State& state() {
    NodePool& o = owner();
    const std::uintptr_t w = o.word_.load(std::memory_order_acquire);
    if ((w & kUnbuilt) != 0) return o.materialize(w);
    return *reinterpret_cast<State*>(w);
  }
  /// The owner's state block, or nullptr before its first allocation.
  const State* built() const noexcept;

  State& materialize(std::uintptr_t unbuilt);
  void* grow(State& s, Lane& lane, std::size_t bytes, std::size_t align);
  static Slab* new_slab(State& s, std::size_t capacity);

  std::atomic<std::uintptr_t> word_;
};

}  // namespace renamelib
