// The handshake between a simulated process and the adversarial scheduler.
//
// Every simulated process is a fiber: a ucontext with its own stack, run by
// the scheduler's OS thread. In simulated mode every shared-memory operation
// is preceded by begin_step() on the process's SchedGate, which publishes
// the step and switches back to the scheduler; the scheduler resumes the
// process only to grant that step or to kill it. One process runs at a time,
// so the grant order is a total order on shared-memory operations — i.e.
// the linearization the adversary chose.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>

#include "core/step.h"

namespace renamelib {

/// Thrown inside a simulated process when the adversary crashes it. The
/// executor catches it at the top of the process body; algorithms just need
/// to be exception-safe (RAII), which they are.
struct ProcessCrashed {};

/// One gate per simulated process: its fiber, its pending step and its kill
/// flag. Process-side calls run on the fiber; scheduler-side calls run on
/// the thread that owns the gate.
class SchedGate {
 public:
  enum class State : int {
    kRunning,    ///< executing local code (not visible to scheduling)
    kAtGate,     ///< suspended, requesting a shared step (info() is valid)
    kDone,       ///< process body returned
    kCrashed,    ///< adversary killed it
  };

  /// Usable stack per process, below a PROT_NONE guard page. Small because
  /// ASan's swapcontext interceptor clears the shadow of the whole target
  /// stack on every switch; the deepest body seen (test suite, fuzz smoke,
  /// simulated benches) uses under 6 KiB.
  static constexpr std::size_t kStackSize = 64 * 1024;

  /// A suspended process that runs `body` on its first resume(), with
  /// obs events tagged `pid`. `body` must let only ProcessCrashed escape.
  SchedGate(int pid, std::function<void()> body);
  ~SchedGate();
  SchedGate(const SchedGate&) = delete;
  SchedGate& operator=(const SchedGate&) = delete;

  // --- process side ---------------------------------------------------

  /// Publishes `info` and suspends until the scheduler grants the step;
  /// the process then performs it and runs on to its next gate. Throws
  /// ProcessCrashed if the adversary killed this process instead.
  void begin_step(const StepInfo& info);

  // --- scheduler side --------------------------------------------------

  /// Runs the process until it is at its next gate, done, or crashed. The
  /// first call runs its prologue; later calls grant the pending step.
  void resume();

  /// Crashes the process at its gate: it throws ProcessCrashed from
  /// begin_step() and its stack unwinds before kill() returns.
  void kill();

  State state() const noexcept { return state_; }

  /// The pending step description; only meaningful in State::kAtGate.
  const StepInfo& info() const noexcept { return info_; }

 private:
  /// One end of a switch: its context, plus what the sanitizers track of
  /// its stack (unused in uninstrumented builds).
  struct Fiber {
    ucontext_t context{};
    const void* stack = nullptr;  ///< ASan: lowest address of the stack
    std::size_t stack_size = 0;
    void* fake_stack = nullptr;  ///< ASan: saved while switched out
    void* tsan = nullptr;        ///< TSan fiber handle
  };

  static void entry(unsigned hi, unsigned lo) noexcept;
  /// Switches from `from` to `to`; returns when something switches back.
  /// `last`: `from` never runs again.
  static void jump(Fiber& from, Fiber& to, bool last = false);

  int pid_;
  std::function<void()> body_;
  State state_ = State::kRunning;
  bool killed_ = false;
  StepInfo info_{};
  char* mapping_ = nullptr;  ///< guard page, then kStackSize of stack (pooled)
  Fiber self_;
  Fiber scheduler_;
};

}  // namespace renamelib
