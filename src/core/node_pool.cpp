#include "core/node_pool.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "core/assert.h"
#include "proc/shm_arena.h"

namespace renamelib {

namespace {

// Slab blocks (header included) start at 4 KiB and double up to 64 KiB.
constexpr std::size_t kFirstBlock = 4 << 10;
constexpr std::size_t kMaxBlock = 64 << 10;
constexpr int kBlockSizes = 5;  // 4, 8, 16, 32 and 64 KiB

constexpr std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

void* checked(void* p) {
  RENAMELIB_ENSURE(p != nullptr, "node pool: out of memory");
  return p;
}

// Heap blocks of the regular sizes that dead pools released, kept for the
// next pool. Given back to malloc, a dead object's slabs let it return their
// pages to the kernel, and the next object faults every page in again: two
// page faults per paper_fai op. The lists thread through the free blocks
// themselves, so keeping one allocates nothing; the mutex is taken once per
// 4-64 KiB slab.
struct FreeBlock {
  FreeBlock* next;
};
constexpr std::size_t kCachedBytes = 32 << 20;
constinit std::mutex g_cache_mu;
FreeBlock* g_cache[kBlockSizes] = {};
std::size_t g_cached = 0;

int size_index(std::size_t block) {
  for (int i = 0; i < kBlockSizes; ++i) {
    if (block == kFirstBlock << i) return i;
  }
  return -1;
}

void* take_heap_block(std::size_t block) {
  if (const int i = size_index(block); i >= 0) {
    std::lock_guard lock(g_cache_mu);
    if (FreeBlock* b = g_cache[i]) {
      g_cache[i] = b->next;
      g_cached -= block;
      return b;
    }
  }
  return checked(std::aligned_alloc(NodePool::kMaxAlign, block));
}

void give_heap_block(void* p, std::size_t block) {
  if (const int i = size_index(block); i >= 0) {
    std::lock_guard lock(g_cache_mu);
    if (g_cached + block <= kCachedBytes) {
      g_cache[i] = ::new (p) FreeBlock{g_cache[i]};
      g_cached += block;
      return;
    }
  }
  std::free(p);
}

}  // namespace

NodePool::NodePool() noexcept
    : word_(reinterpret_cast<std::uintptr_t>(proc::ShmArena::in_scope()) |
            kUnbuilt) {}

NodePool::~NodePool() {
  const std::uintptr_t w = word_.load(std::memory_order_acquire);
  if ((w & kTags) != 0) return;  // a borrower, or nothing was allocated
  State* s = reinterpret_cast<State*>(w);
  if (s->arena != nullptr) return;  // arena memory dies with the arena
  for (Slab* slab = s->slabs.load(std::memory_order_acquire); slab != nullptr;) {
    Slab* next = slab->next;
    give_heap_block(slab, sizeof(Slab) + slab->capacity);
    slab = next;
  }
  s->~State();
  std::free(s);
}

NodePool::State& NodePool::materialize(std::uintptr_t unbuilt) {
  auto* arena = reinterpret_cast<proc::ShmArena*>(unbuilt & ~kTags);
  // The arena ENSUREs its own capacity.
  void* block = arena != nullptr
                    ? arena->alloc(sizeof(State), alignof(State))
                    : checked(std::aligned_alloc(alignof(State), sizeof(State)));
  State* fresh = ::new (block) State(arena);
  std::uintptr_t expected = unbuilt;
  if (word_.compare_exchange_strong(expected, reinterpret_cast<std::uintptr_t>(fresh),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return *fresh;
  }
  // Another process published first; a heap loser is freed, an arena one
  // stays unused in the arena.
  if (arena == nullptr) {
    fresh->~State();
    std::free(fresh);
  }
  return *reinterpret_cast<State*>(expected);
}

NodePool::Slab* NodePool::new_slab(State& s, std::size_t capacity) {
  const std::size_t block = sizeof(Slab) + capacity;
  Slab* slab = ::new (s.arena != nullptr ? s.arena->alloc(block, alignof(Slab))
                                         : take_heap_block(block)) Slab;
  slab->capacity = capacity;
  slab->next = s.slabs.load(std::memory_order_relaxed);
  while (!s.slabs.compare_exchange_weak(slab->next, slab,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
  }
  return slab;
}

void* NodePool::grow(State& s, Lane& lane, std::size_t bytes, std::size_t align) {
  RENAMELIB_ENSURE(align != 0 && (align & (align - 1)) == 0 && align <= kMaxAlign,
                   "node pool: alignment must be a power of two <= 64");
  Slab* old = lane.slab.load(std::memory_order_acquire);
  // A racer sharing this lane may have installed a fresh slab already.
  if (old != nullptr) {
    if (void* p = old->bump(bytes, align)) return p;
  }
  const std::size_t block =
      old == nullptr ? kFirstBlock
                     : std::min(2 * (sizeof(Slab) + old->capacity), kMaxBlock);
  const std::size_t need = round_up(bytes, alignof(Slab));
  if (need > block - sizeof(Slab)) {
    // Larger than the lane's next slab: a slab of its own, not installed.
    return new_slab(s, need)->bump(bytes, align);
  }
  Slab* fresh = new_slab(s, block - sizeof(Slab));
  void* p = fresh->bump(bytes, align);
  // If a racer on this lane installed its own slab meanwhile, ours served
  // this request only; it is still owned through the slab list.
  lane.slab.compare_exchange_strong(old, fresh, std::memory_order_acq_rel,
                                    std::memory_order_relaxed);
  return p;
}

const NodePool::State* NodePool::built() const noexcept {
  std::uintptr_t w = word_.load(std::memory_order_acquire);
  if ((w & kBorrowed) != 0) {
    w = reinterpret_cast<const NodePool*>(w & ~kTags)->word_.load(
        std::memory_order_acquire);
  }
  return (w & kUnbuilt) != 0 ? nullptr : reinterpret_cast<const State*>(w);
}

bool NodePool::materialized() const noexcept { return built() != nullptr; }

std::size_t NodePool::slab_count() const noexcept {
  const State* s = built();
  std::size_t n = 0;
  if (s != nullptr) {
    for (const Slab* slab = s->slabs.load(std::memory_order_acquire);
         slab != nullptr; slab = slab->next) {
      ++n;
    }
  }
  return n;
}

}  // namespace renamelib
