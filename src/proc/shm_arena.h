/// \file
/// \brief POSIX shared-memory arena: the placement layer that puts a
/// registry-built shared object (and the proc backend's mailboxes, op rings,
/// and start barrier) into memory that survives fork() as *shared* pages.
///
/// The multi-process backend (proc_backend.h) runs one OS process per
/// scenario pid. fork() gives children copy-on-write copies of the parent's
/// heap, so an object constructed with plain `new` silently degrades into N
/// private counters. The arena fixes that at the allocation layer instead of
/// rewriting any structure: an ArenaScope routes the *global* operator
/// new/delete through a bump allocator over one shm_open/mmap(MAP_SHARED)
/// mapping, so `Registry::make_counter(...)` executed inside the scope lands
/// every internal allocation — RegisterArrays, stripe slots, lease slot
/// words, vtable-carrying adapter objects — in shared memory. Children
/// inherit the mapping at the same address, so vtable pointers and interior
/// pointers stay valid in every process; the structures themselves are flat
/// std::atomic words (lock-free ⇒ address-free per [atomics.lockfree]), so
/// the cross-process semantics are the ones the paper assumes. What an
/// object builds later, mid-operation in a forked worker, comes from its
/// NodePool (core/node_pool.h), which captured the arena in scope at
/// construction and keeps allocating from it.
///
/// Lifecycle discipline (the part that keeps /dev/shm clean):
///   * names are uniquified by pid + caller tag + a process-local counter,
///     so two concurrent runs can never collide on a segment;
///   * the segment is created O_CREAT|O_EXCL — attaching to a *stale* arena
///     left by a killed prior run is detected (EEXIST, or a nonzero magic in
///     freshly mapped pages) and refused: the stale name is unlinked and a
///     fresh segment created, never silently reattached (RENAMELIB_ENSURE);
///   * the name is shm_unlink()ed immediately after mmap succeeds. The
///     kernel keeps the pages alive until the last unmap, children inherit
///     the mapping through fork without ever needing the name, and a parent
///     killed at *any* later point (SIGKILL included) cannot leak a segment.
///     The short open→unlink window is additionally covered by a registered
///     atexit cleanup and by unlink-before-throw on every constructor error
///     path.
///
/// Deallocation: operator delete of an arena pointer is a no-op (the arena
/// is dropped wholesale at unmap). Objects allocated from an arena must be
/// destroyed before the arena itself — after unmap the address range can be
/// recycled by malloc, and a late free of an arena pointer would corrupt the
/// allocator. The proc harness enforces this ordering by scoping the object
/// inside the arena's lifetime.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace renamelib::proc {

/// One shared-memory bump arena (see file comment for the lifecycle).
class ShmArena {
 public:
  /// Creates a fresh shared segment of `bytes` (rounded up to the page
  /// size). `tag` feeds the name (callers pass the scenario seed so a
  /// segment is attributable in diagnostics). Throws std::runtime_error on
  /// OS-level failure; refuses stale segments (see file comment).
  explicit ShmArena(std::size_t bytes, std::uint64_t tag = 0);

  /// Unmaps the segment (the already-unlinked kernel object dies with the
  /// last unmap — the children's inherited mappings count).
  ~ShmArena();

  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  /// Bump-allocates `bytes` at `align` from the shared region. Cross-process
  /// safe (atomic bump), never reused until the arena dies. Aborts via
  /// RENAMELIB_ENSURE when the arena is exhausted.
  void* alloc(std::size_t bytes, std::size_t align);

  /// True iff `p` points into this arena's mapping.
  bool contains(const void* p) const noexcept;

  /// Mapped capacity in bytes (allocatable region, header excluded).
  std::size_t capacity() const noexcept { return data_bytes_; }
  /// Bytes already bump-allocated.
  std::size_t used() const noexcept;

  /// The (already unlinked) shm name this arena was created under — kept for
  /// diagnostics only; no process can reattach by name.
  const std::string& name() const noexcept { return name_; }

  /// The most recently constructed still-live arena (nullptr outside a proc
  /// run). The proc backend lays its mailboxes and op rings out here.
  static ShmArena* current() noexcept;

  /// The arena the calling thread's innermost ArenaScope routes into, or
  /// nullptr outside every scope. A NodePool captures it at construction.
  static ShmArena* in_scope() noexcept;

 private:
  std::string name_;
  void* base_ = nullptr;        ///< mapping base (header at offset 0)
  std::size_t map_bytes_ = 0;   ///< total mapping length
  std::size_t data_bytes_ = 0;  ///< allocatable bytes after the header
};

/// Routes the global operator new through `arena` for the current thread
/// while in scope — the construction window in which registry factories
/// place a shared object into the arena. Scopes nest LIFO per thread.
///
/// Lazily-constructed process singletons (Registry::global(), the obs
/// event bus) must be materialized *before* opening a scope, or their
/// one-time allocations would land in — and die with — the arena; the scope
/// constructor defensively touches the known obs singletons itself.
class ArenaScope {
 public:
  explicit ArenaScope(ShmArena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  ShmArena* saved_;
};

/// True iff `p` lies inside any live arena (the operator-delete range test;
/// one relaxed load when no arena has ever existed).
bool arena_owns(const void* p) noexcept;

}  // namespace renamelib::proc
