#include "core/sched_gate.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/assert.h"
#include "obs/emit.h"

// Sanitizers must see every stack switch: ASan to know which stack is live
// (else it reports false stack-use-after-scope), TSan to keep one shadow
// state per fiber and to order the switches.
#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

namespace renamelib {

namespace {
const std::size_t kGuard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));

/// The guarded stacks of finished processes, kept for the next processes
/// this thread simulates: an exploration runs thousands of short
/// executions, and each would otherwise map, protect and unmap one stack
/// per process. A stack's contents are never read before they are written,
/// so reuse changes no execution.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (char* mapping : free_) munmap(mapping, kGuard + SchedGate::kStackSize);
  }

  /// A guard page, then kStackSize of stack.
  char* take() {
    if (!free_.empty()) {
      char* mapping = free_.back();
      free_.pop_back();
      return mapping;
    }
    void* mapping = mmap(nullptr, kGuard + SchedGate::kStackSize,
                         PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    // The stack grows down: an overflow faults on the guard page instead of
    // writing into the neighbouring mapping.
    RENAMELIB_ENSURE(mapping != MAP_FAILED && mprotect(mapping, kGuard, PROT_NONE) == 0,
                     "cannot set up a process stack");
    return static_cast<char*>(mapping);
  }

  void give(char* mapping) {
    if (free_.size() < kKept) {
      free_.push_back(mapping);
    } else {
      munmap(mapping, kGuard + SchedGate::kStackSize);
    }
  }

 private:
  static constexpr std::size_t kKept = 256;  ///< stacks kept per thread
  std::vector<char*> free_;
};

thread_local StackPool t_stacks;

}  // namespace

SchedGate::SchedGate(int pid, std::function<void()> body)
    : pid_(pid), body_(std::move(body)), mapping_(t_stacks.take()) {
  RENAMELIB_ENSURE(getcontext(&self_.context) == 0, "cannot set up a process stack");
  self_.stack = self_.context.uc_stack.ss_sp = mapping_ + kGuard;
  self_.stack_size = self_.context.uc_stack.ss_size = kStackSize;
  // makecontext passes int arguments only: split `this` into two halves.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&self_.context, reinterpret_cast<void (*)()>(&entry), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
#ifdef __SANITIZE_THREAD__
  self_.tsan = __tsan_create_fiber(0);
#endif
}

SchedGate::~SchedGate() {
#ifdef __SANITIZE_THREAD__
  __tsan_destroy_fiber(self_.tsan);
#endif
  t_stacks.give(mapping_);
}

void SchedGate::entry(unsigned hi, unsigned lo) noexcept {
  auto& gate = *reinterpret_cast<SchedGate*>(
      (static_cast<std::uintptr_t>(hi) << 32) | lo);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(nullptr, &gate.scheduler_.stack,
                                  &gate.scheduler_.stack_size);
#endif
  try {
    gate.body_();
    gate.state_ = State::kDone;
  } catch (const ProcessCrashed&) {
    gate.state_ = State::kCrashed;
  }
  jump(gate.self_, gate.scheduler_, /*last=*/true);
}

void SchedGate::jump(Fiber& from, Fiber& to, [[maybe_unused]] bool last) {
#ifdef __SANITIZE_ADDRESS__
  // A null save slot tells ASan that `from`'s stack is gone for good.
  __sanitizer_start_switch_fiber(last ? nullptr : &from.fake_stack, to.stack,
                                 to.stack_size);
#endif
#ifdef __SANITIZE_THREAD__
  from.tsan = __tsan_get_current_fiber();  // records the scheduler's handle
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  swapcontext(&from.context, &to.context);
#ifdef __SANITIZE_ADDRESS__
  // Only `to` ever switches back to `from`.
  __sanitizer_finish_switch_fiber(from.fake_stack, &to.stack, &to.stack_size);
#endif
}

void SchedGate::begin_step(const StepInfo& info) {
  RENAMELIB_ENSURE(state_ == State::kRunning, "begin_step from non-running state");
  info_ = info;
  state_ = State::kAtGate;
  jump(self_, scheduler_);
  if (killed_) {
    // A step killed at the gate was never performed.
    state_ = State::kCrashed;
    throw ProcessCrashed{};
  }
  state_ = State::kRunning;
}

void SchedGate::resume() {
  RENAMELIB_ENSURE(state_ == State::kRunning || state_ == State::kAtGate,
                   "resume of a finished process");
  // The process's obs::emit events carry its simulated pid, so the flight
  // recorder's post-mortem timeline names processes.
  const int scheduler_pid = std::exchange(obs::detail::t_pid, pid_);
  jump(scheduler_, self_);
  obs::detail::t_pid = scheduler_pid;
}

void SchedGate::kill() {
  RENAMELIB_ENSURE(state_ == State::kAtGate, "kill of a dead process");
  killed_ = true;
  resume();
}

}  // namespace renamelib
