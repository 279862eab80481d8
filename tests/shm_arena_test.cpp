// ShmArena lifecycle and the operator-new routing layer:
//
//   * allocation — alignment, containment, bump accounting,
//   * hygiene — the /dev/shm name is unlinked before the constructor
//     returns, and a planted stale segment under the exact next name is
//     discarded (never reattached) with a fresh segment created in place,
//   * routing — inside an ArenaScope the *global* operator new lands
//     allocations (including container internals) in the arena; operator
//     delete of arena memory is a no-op and plain heap traffic is untouched,
//   * sharing — a fork()ed child's writes through an arena pointer are
//     visible to the parent (the property the whole proc backend rests on),
//   * node pools — a NodePool built inside an ArenaScope keeps drawing from
//     that arena after the scope closes, so a node a forked child builds is
//     the parent's too, and an exhausted arena stops the pool with its
//     ENSURE instead of falling back to private memory.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/lazy.h"
#include "core/node_pool.h"
#include "proc/shm_arena.h"

namespace renamelib::proc {
namespace {

/// Linux maps POSIX shm names onto /dev/shm/<name minus the leading slash>.
bool dev_shm_entry_exists(const std::string& shm_name) {
  return ::access(("/dev/shm" + shm_name).c_str(), F_OK) == 0;
}

TEST(ShmArena, AllocAlignsContainsAndAccounts) {
  ShmArena arena(1 << 20, /*tag=*/0x11);
  EXPECT_GE(arena.capacity(), std::size_t{1} << 20);
  const std::size_t used0 = arena.used();

  void* a = arena.alloc(100, 64);
  void* b = arena.alloc(8, 4096);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 4096, 0u);
  EXPECT_TRUE(arena.contains(a));
  EXPECT_TRUE(arena.contains(b));
  EXPECT_GT(arena.used(), used0 + 100);

  int on_stack = 0;
  EXPECT_FALSE(arena.contains(&on_stack));
  EXPECT_FALSE(arena_owns(&on_stack));
}

TEST(ShmArena, NameIsUnlinkedBeforeConstructionReturns) {
  ShmArena arena(1 << 16, /*tag=*/0x22);
  // The kernel object is alive (we can allocate and touch pages) but the
  // name is already gone: no exit path can leak a /dev/shm entry.
  auto* word = static_cast<std::uint64_t*>(arena.alloc(sizeof(std::uint64_t), 8));
  *word = 42;
  EXPECT_FALSE(dev_shm_entry_exists(arena.name()));
}

TEST(ShmArena, DiscardsPlantedStaleSegmentInsteadOfReattaching) {
  // Names are pid + tag + a process-local counter, so the next arena's name
  // is predictable from this probe's: same prefix, counter + 1.
  const std::uint64_t tag = 0xABC;
  std::string next_name;
  {
    ShmArena probe(1 << 14, tag);
    const std::string name = probe.name();
    const auto dash = name.rfind('-');
    ASSERT_NE(dash, std::string::npos);
    const std::uint64_t ctr = std::strtoull(name.c_str() + dash + 1, nullptr, 10);
    next_name = name.substr(0, dash + 1) + std::to_string(ctr + 1);
  }

  // Plant a stale segment under the predicted name, as a SIGKILLed prior
  // run (after pid reuse) would have left it.
  int fd = ::shm_open(next_name.c_str(), O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);
  ::close(fd);
  ASSERT_TRUE(dev_shm_entry_exists(next_name));

  // The constructor must hit EEXIST, refuse to reattach, and create fresh.
  ShmArena arena(1 << 14, tag);
  EXPECT_EQ(arena.name(), next_name);
  EXPECT_FALSE(dev_shm_entry_exists(next_name));
  void* p = arena.alloc(64, 64);
  EXPECT_TRUE(arena.contains(p));
}

TEST(ShmArena, ScopeRoutesGlobalOperatorNew) {
  ShmArena arena(1 << 20, /*tag=*/0x33);
  int* outside = new int(1);
  EXPECT_FALSE(arena_owns(outside));

  {
    ArenaScope scope(arena);
    EXPECT_EQ(ShmArena::current(), &arena);

    auto* p = new std::uint64_t(7);
    EXPECT_TRUE(arena.contains(p));
    EXPECT_TRUE(arena_owns(p));
    delete p;  // no-op for arena memory (dropped wholesale at unmap)

    // Container internals route too: both the vector header and its buffer
    // must land in the arena, or a forked process would see a private copy.
    auto* v = new std::vector<int>();
    v->resize(1024, 3);
    EXPECT_TRUE(arena.contains(v));
    EXPECT_TRUE(arena.contains(v->data()));
    delete v;  // dtor runs; both frees are arena no-ops
  }

  // Outside the scope, allocation is plain heap again.
  int* after = new int(3);
  EXPECT_FALSE(arena_owns(after));
  delete after;
  delete outside;
}

TEST(ShmArena, CurrentTracksNestedArenasLifo) {
  EXPECT_EQ(ShmArena::current(), nullptr);
  {
    ShmArena outer(1 << 16, 0x44);
    EXPECT_EQ(ShmArena::current(), &outer);
    {
      ShmArena inner(1 << 16, 0x45);
      EXPECT_EQ(ShmArena::current(), &inner);
      EXPECT_TRUE(arena_owns(inner.alloc(8, 8)));
      EXPECT_TRUE(arena_owns(outer.alloc(8, 8)));
    }
    EXPECT_EQ(ShmArena::current(), &outer);
  }
  EXPECT_EQ(ShmArena::current(), nullptr);
}

TEST(ShmArena, WritesAreSharedAcrossFork) {
  ShmArena arena(1 << 16, /*tag=*/0x55);
  auto* flag = new (arena.alloc(sizeof(std::atomic<std::uint64_t>), 64))
      std::atomic<std::uint64_t>(0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    flag->store(0xC0FFEE, std::memory_order_release);
    std::_Exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(flag->load(std::memory_order_acquire), 0xC0FFEEu);
}

TEST(ShmArena, NodePoolKeepsDrawingFromItsArenaAfterTheScope) {
  ShmArena arena(1 << 20, /*tag=*/0x66);
  std::optional<NodePool> pool;
  std::atomic<std::uint64_t*>* link = nullptr;
  {
    ArenaScope scope(arena);
    pool.emplace();
    link = new std::atomic<std::uint64_t*>(nullptr);
  }
  const Ctx parent(0, 1);
  EXPECT_TRUE(arena.contains(pool->make<std::uint64_t>(parent, 1)));

  // A child builds a node after fork(); the parent finds it through the
  // shared link, holding the child's value.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const Ctx child(1, 2);
    const auto [node, installed] = publish_once(child, *pool, *link, 0xBEEFu);
    std::_Exit(installed && arena.contains(node) ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::uint64_t* node = link->load(std::memory_order_acquire);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(*node, 0xBEEFu);
}

TEST(ShmArenaDeathTest, ExhaustedArenaStopsTheNodePool) {
  EXPECT_DEATH(
      {
        ShmArena arena(1 << 16, /*tag=*/0x77);
        std::optional<NodePool> pool;
        {
          ArenaScope scope(arena);
          pool.emplace();
        }
        const Ctx ctx(0, 1);
        for (;;) (void)pool->allocate(ctx, 4096, 64);
      },
      "shm arena exhausted");
}

}  // namespace
}  // namespace renamelib::proc
