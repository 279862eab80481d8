// Multi-writer multi-reader atomic registers, the paper's base primitive.
//
// Register<T> wraps std::atomic<T> but routes every access through a Ctx so
// that (a) step complexity is measured exactly and (b) in simulated mode the
// adversary chooses the linearization order. Because the simulator grants one
// step at a time, the underlying std::atomic operation executes while the
// process holds the grant, making the grant order the linearization order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "core/assert.h"
#include "core/ctx.h"
#include "core/node_pool.h"
#include "obs/emit.h"

namespace renamelib {

template <typename T>
class Register {
  static_assert(std::is_trivially_copyable_v<T>,
                "registers hold trivially copyable values");

 public:
  Register() : value_{} {}
  explicit Register(T initial) : value_{initial} {}
  Register(const Register&) = delete;
  Register& operator=(const Register&) = delete;

  T load(Ctx& ctx) const {
    ctx.before_shared_op(OpKind::kLoad, this);
    T v = value_.load(std::memory_order_seq_cst);
    ctx.after_shared_op();
    return v;
  }

  void store(Ctx& ctx, T v) {
    ctx.before_shared_op(OpKind::kStore, this);
    value_.store(v, std::memory_order_seq_cst);
    ctx.after_shared_op();
  }

  /// Single-shot strong CAS; returns true iff the swap happened. `expected`
  /// is updated with the observed value on failure, like std::atomic.
  bool compare_exchange(Ctx& ctx, T& expected, T desired) {
    ctx.before_shared_op(OpKind::kCas, this);
    bool ok = value_.compare_exchange_strong(expected, desired,
                                             std::memory_order_seq_cst);
    ctx.after_shared_op();
    if (!ok) {
      // A lost CAS race, keyed by the protocol phase it happened in — the
      // contention signal for both the fuzzer's coverage map and the event
      // bus's cas_fail counter. The label is hashed only past the gate, so
      // with observation disabled this is one load and a branch.
      obs::emit_label(obs::Site::kCasFail, ctx.label());
    }
    return ok;
  }

  T exchange(Ctx& ctx, T v) {
    ctx.before_shared_op(OpKind::kExchange, this);
    T old = value_.exchange(v, std::memory_order_seq_cst);
    ctx.after_shared_op();
    return old;
  }

  template <typename U = T>
  std::enable_if_t<std::is_integral_v<U>, T> fetch_add(Ctx& ctx, T delta) {
    ctx.before_shared_op(OpKind::kFetchAdd, this);
    T old = value_.fetch_add(delta, std::memory_order_seq_cst);
    ctx.after_shared_op();
    return old;
  }

  /// Initialization-time access, NOT a process step (e.g. building objects
  /// before an execution starts). Must not race with ongoing executions.
  T peek() const { return value_.load(std::memory_order_seq_cst); }
  void poke(T v) { value_.store(v, std::memory_order_seq_cst); }

 private:
  std::atomic<T> value_;
};

/// A register alone on its 64-byte cache line. In an array of these, a write
/// to one element never invalidates the line another process reads its
/// neighbour from.
template <typename T>
struct alignas(64) PaddedRegister {
  Register<T> reg;
};
static_assert(sizeof(PaddedRegister<std::uint64_t>) == 64 &&
                  alignof(PaddedRegister<std::uint64_t>) == 64,
              "a padded register fills exactly one cache line");

/// Fixed-size array of registers (registers are not copyable/movable, so
/// vector<Register<T>> does not work). Each register is constructed holding
/// `initial`, so building an array costs no atomic stores.
template <typename T>
class RegisterArray {
  static_assert(std::is_trivially_destructible_v<Register<T>>,
                "the storage is released without running destructors");

 public:
  /// `n` registers on the heap (or in the scoped arena).
  explicit RegisterArray(std::size_t n, T initial = T{})
      : RegisterArray(n, initial, ::operator new(n * sizeof(Register<T>)), true) {}
  /// `n` (>= 1) registers in `pool`, released with it; `ctx` picks the lane.
  RegisterArray(NodePool& pool, const Ctx& ctx, std::size_t n, T initial = T{})
      : RegisterArray(n, initial,
                      pool.allocate(ctx, n * sizeof(Register<T>), alignof(Register<T>)),
                      false) {}

  std::size_t size() const noexcept { return size_; }

  Register<T>& operator[](std::size_t i) {
    RENAMELIB_ENSURE(i < size_, "register index out of range");
    return regs_[i];
  }
  const Register<T>& operator[](std::size_t i) const {
    RENAMELIB_ENSURE(i < size_, "register index out of range");
    return regs_[i];
  }

 private:
  RegisterArray(std::size_t n, T initial, void* storage, bool owned)
      : size_(n), regs_(static_cast<Register<T>*>(storage), Release{owned}) {
    for (std::size_t i = 0; i < n; ++i) new (&regs_[i]) Register<T>(initial);
  }

  struct Release {
    bool owned;  ///< false: the storage belongs to a NodePool
    void operator()(Register<T>* p) const noexcept {
      if (owned) ::operator delete(p);
    }
  };

  std::size_t size_;
  std::unique_ptr<Register<T>[], Release> regs_;
};

}  // namespace renamelib
