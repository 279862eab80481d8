#include "proc/shm_arena.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "core/assert.h"
#include "fuzz/coverage.h"
#include "obs/event_bus.h"
#include "obs/flight_recorder.h"

namespace renamelib::proc {
namespace {

/// Magic stamped into a fresh segment's header once this process owns it. A
/// freshly created (O_EXCL) segment is all-zero; seeing this value in pages
/// we just created means the kernel handed us a stale object — refuse it.
constexpr std::uint64_t kArenaMagic = 0x524e4d4c41524e41ULL;  // "RNMLARNA"

struct ArenaHeader {
  std::atomic<std::uint64_t> magic;
  std::atomic<std::uint64_t> next;  ///< bump offset, relative to data start
};

constexpr std::size_t kHeaderBytes = 64;  // keeps data region cache-aligned
static_assert(sizeof(ArenaHeader) <= kHeaderBytes);

/// Live-arena ranges for the operator-delete ownership test. Slots are
/// claimed on construction and zeroed on destruction so a malloc that later
/// recycles the unmapped address range is not misclassified.
constexpr int kMaxLiveArenas = 8;
struct LiveRange {
  std::atomic<std::uintptr_t> base{0};
  std::atomic<std::size_t> size{0};
};
LiveRange g_live[kMaxLiveArenas];
std::atomic<bool> g_any_arena{false};

/// LIFO of live arenas; top is ShmArena::current().
std::atomic<ShmArena*> g_stack[kMaxLiveArenas];
std::atomic<int> g_depth{0};

/// Names created but not yet unlinked (the open→unlink window only): a
/// best-effort atexit sweep for exits inside that window. SIGKILL during the
/// window is the one gap; it is a few instructions wide by construction.
char g_pending_name[kMaxLiveArenas][NAME_MAX];
std::atomic<bool> g_pending[kMaxLiveArenas];
std::atomic<bool> g_atexit_registered{false};

void cleanup_pending_names() {
  for (int i = 0; i < kMaxLiveArenas; ++i) {
    if (g_pending[i].load(std::memory_order_acquire)) {
      ::shm_unlink(g_pending_name[i]);
      g_pending[i].store(false, std::memory_order_release);
    }
  }
}

int register_pending(const std::string& name) {
  if (!g_atexit_registered.exchange(true, std::memory_order_acq_rel)) {
    std::atexit(&cleanup_pending_names);
  }
  for (int i = 0; i < kMaxLiveArenas; ++i) {
    bool expect = false;
    if (g_pending[i].compare_exchange_strong(expect, true,
                                             std::memory_order_acq_rel)) {
      std::snprintf(g_pending_name[i], sizeof(g_pending_name[i]), "%s",
                    name.c_str());
      return i;
    }
  }
  return -1;  // more in-flight creations than slots: fall back to no cover
}

void clear_pending(int slot) {
  if (slot >= 0) g_pending[slot].store(false, std::memory_order_release);
}

/// The thread's active arena for operator-new routing. Constant-initialized:
/// the replaced operator new runs before any dynamic initializer.
thread_local ShmArena* tl_active = nullptr;

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

ShmArena::ShmArena(std::size_t bytes, std::uint64_t tag) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  char buf[NAME_MAX];
  std::snprintf(buf, sizeof(buf), "/renamelib-%ld-%llx-%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(tag),
                static_cast<unsigned long long>(n));
  name_ = buf;

  const long page = ::sysconf(_SC_PAGESIZE);
  map_bytes_ = round_up(kHeaderBytes + bytes, static_cast<std::size_t>(page));
  data_bytes_ = map_bytes_ - kHeaderBytes;

  const int pending = register_pending(name_);
  int fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0 && errno == EEXIST) {
    // A stale segment from a killed prior run under our exact name (possible
    // only after pid reuse). Never reattach: discard it and create fresh.
    std::fprintf(stderr,
                 "renamelib: discarding stale shm segment %s from a dead "
                 "prior run\n",
                 name_.c_str());
    ::shm_unlink(name_.c_str());
    fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  }
  if (fd < 0) {
    clear_pending(pending);
    throw_errno("shm_open(" + name_ + ")");
  }
  if (::ftruncate(fd, static_cast<off_t>(map_bytes_)) != 0) {
    ::close(fd);
    ::shm_unlink(name_.c_str());
    clear_pending(pending);
    throw_errno("ftruncate(" + name_ + ")");
  }
  base_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                 0);
  ::close(fd);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    ::shm_unlink(name_.c_str());
    clear_pending(pending);
    throw_errno("mmap(" + name_ + ")");
  }
  // Unlink immediately: the kernel object now lives exactly as long as the
  // last mapping (children inherit the mapping through fork), so no exit
  // path — parent SIGKILL included — can leak a /dev/shm entry.
  ::shm_unlink(name_.c_str());
  clear_pending(pending);

  auto* h = reinterpret_cast<ArenaHeader*>(base_);
  RENAMELIB_ENSURE(h->magic.load(std::memory_order_acquire) == 0,
                   "shm arena: freshly created segment carries a live magic "
                   "word — refusing to silently reattach a stale arena");
  h->next.store(0, std::memory_order_relaxed);
  h->magic.store(kArenaMagic, std::memory_order_release);

  // Publish the range for arena_owns(), then push onto the live stack.
  int slot = -1;
  for (int i = 0; i < kMaxLiveArenas; ++i) {
    std::uintptr_t expect = 0;
    if (g_live[i].base.compare_exchange_strong(
            expect, reinterpret_cast<std::uintptr_t>(base_),
            std::memory_order_acq_rel)) {
      g_live[i].size.store(map_bytes_, std::memory_order_release);
      slot = i;
      break;
    }
  }
  RENAMELIB_ENSURE(slot >= 0, "shm arena: too many live arenas");
  g_any_arena.store(true, std::memory_order_release);
  const int d = g_depth.fetch_add(1, std::memory_order_acq_rel);
  RENAMELIB_ENSURE(d < kMaxLiveArenas, "shm arena: live-arena stack overflow");
  g_stack[d].store(this, std::memory_order_release);
}

ShmArena::~ShmArena() {
  const int d = g_depth.fetch_sub(1, std::memory_order_acq_rel) - 1;
  RENAMELIB_ENSURE(d >= 0 && g_stack[d].load(std::memory_order_acquire) == this,
                   "shm arena: arenas must be destroyed LIFO");
  g_stack[d].store(nullptr, std::memory_order_release);
  for (int i = 0; i < kMaxLiveArenas; ++i) {
    if (g_live[i].base.load(std::memory_order_acquire) ==
        reinterpret_cast<std::uintptr_t>(base_)) {
      g_live[i].size.store(0, std::memory_order_release);
      g_live[i].base.store(0, std::memory_order_release);
      break;
    }
  }
  ::munmap(base_, map_bytes_);
}

void* ShmArena::alloc(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  auto* h = reinterpret_cast<ArenaHeader*>(base_);
  std::uint64_t cur = h->next.load(std::memory_order_relaxed);
  std::uint64_t aligned, end;
  do {
    // Align the *absolute* address, not the bump offset: data starts at
    // base_ + kHeaderBytes, and the mmap base is only page-aligned, so for
    // align in (kHeaderBytes, page] the two differ.
    aligned = round_up(cur + kHeaderBytes, align) - kHeaderBytes;
    end = aligned + bytes;
    RENAMELIB_ENSURE(end <= data_bytes_,
                     "shm arena exhausted — raise the arena size for this "
                     "scenario (default_arena_bytes)");
  } while (!h->next.compare_exchange_weak(cur, end, std::memory_order_acq_rel,
                                          std::memory_order_relaxed));
  return static_cast<char*>(base_) + kHeaderBytes + aligned;
}

bool ShmArena::contains(const void* p) const noexcept {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const auto b = reinterpret_cast<std::uintptr_t>(base_);
  return a >= b && a < b + map_bytes_;
}

std::size_t ShmArena::used() const noexcept {
  return reinterpret_cast<const ArenaHeader*>(base_)->next.load(
      std::memory_order_relaxed);
}

ShmArena* ShmArena::current() noexcept {
  const int d = g_depth.load(std::memory_order_acquire);
  return d > 0 ? g_stack[d - 1].load(std::memory_order_acquire) : nullptr;
}

ShmArena* ShmArena::in_scope() noexcept { return tl_active; }

ArenaScope::ArenaScope(ShmArena& arena) : saved_(tl_active) {
  // Materialize lazily-constructed obs singletons in private memory before
  // any allocation can be routed into the (mortal) arena.
  obs::EventBus::instance();
  obs::FlightRecorder::instance();
  fuzz::Coverage::instance();
  tl_active = &arena;
}

ArenaScope::~ArenaScope() { tl_active = saved_; }

bool arena_owns(const void* p) noexcept {
  if (!g_any_arena.load(std::memory_order_acquire)) return false;
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  for (int i = 0; i < kMaxLiveArenas; ++i) {
    const std::uintptr_t b = g_live[i].base.load(std::memory_order_acquire);
    if (b == 0) continue;
    const std::size_t sz = g_live[i].size.load(std::memory_order_acquire);
    if (a >= b && a < b + sz) return true;
  }
  return false;
}

namespace detail {

void* route_new(std::size_t bytes, std::size_t align) noexcept {
  if (ShmArena* a = tl_active) return a->alloc(bytes, align);
  if (align > alignof(std::max_align_t)) {
    void* p = nullptr;
    if (::posix_memalign(&p, align, bytes == 0 ? align : bytes) != 0)
      return nullptr;
    return p;
  }
  return std::malloc(bytes == 0 ? 1 : bytes);
}

void route_delete(void* p) noexcept {
  if (p == nullptr || arena_owns(p)) return;  // arena memory dies wholesale
  std::free(p);
}

}  // namespace detail
}  // namespace renamelib::proc

// ---------------------------------------------------------------------------
// Global operator new/delete replacement. Outside an ArenaScope this is a
// thin veneer over malloc/free (one thread-local load, one range check with
// an early-out when no arena has ever existed); inside a scope, allocations
// land in the shared arena. All replaceable forms are covered so that
// alignas(64) structures, arrays, sized and nothrow deletes all route
// consistently.
// ---------------------------------------------------------------------------

namespace {
void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return checked(
      renamelib::proc::detail::route_new(n, alignof(std::max_align_t)));
}
void* operator new[](std::size_t n) {
  return checked(
      renamelib::proc::detail::route_new(n, alignof(std::max_align_t)));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return checked(
      renamelib::proc::detail::route_new(n, static_cast<std::size_t>(al)));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return checked(
      renamelib::proc::detail::route_new(n, static_cast<std::size_t>(al)));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return renamelib::proc::detail::route_new(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return renamelib::proc::detail::route_new(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return renamelib::proc::detail::route_new(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return renamelib::proc::detail::route_new(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete[](void* p) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete(void* p, std::size_t) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  renamelib::proc::detail::route_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  renamelib::proc::detail::route_delete(p);
}
