#include "proc/mailbox.h"

#include <cstring>
#include <new>

#include "core/assert.h"

namespace renamelib::proc {
namespace {
std::size_t align64(std::size_t v) { return (v + 63) & ~std::size_t{63}; }
}  // namespace

std::size_t Layout::bytes_for(int nproc, int ring_ops) {
  const auto n = static_cast<std::size_t>(nproc);
  std::size_t b = align64(sizeof(Control));
  b += n * align64(sizeof(Mailbox));
  b += align64(n * static_cast<std::size_t>(ring_ops) * sizeof(OpSlot));
  return b + 64 * (n + 8);  // per-allocation alignment slack
}

Layout Layout::create(ShmArena& arena, int nproc, int ring_ops) {
  RENAMELIB_ENSURE(nproc >= 1 && nproc <= kMaxProcs,
                   "proc backend supports 1..kMaxProcs processes");
  RENAMELIB_ENSURE(ring_ops >= 0, "negative ring capacity");
  Layout l;
  l.nproc = nproc;
  l.ring_ops = ring_ops;
  l.control = new (arena.alloc(sizeof(Control), 64)) Control();
  l.mailboxes = static_cast<Mailbox*>(
      arena.alloc(sizeof(Mailbox) * static_cast<std::size_t>(nproc), 64));
  for (int p = 0; p < nproc; ++p) new (&l.mailboxes[p]) Mailbox();
  if (ring_ops > 0) {
    const std::size_t ring_bytes = static_cast<std::size_t>(nproc) *
                                   static_cast<std::size_t>(ring_ops) *
                                   sizeof(OpSlot);
    l.rings = static_cast<OpSlot*>(arena.alloc(ring_bytes, 64));
    std::memset(static_cast<void*>(l.rings), 0, ring_bytes);
  }
  return l;
}

}  // namespace renamelib::proc
