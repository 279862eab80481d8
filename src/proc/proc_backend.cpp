#include "proc/proc_backend.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "core/assert.h"
#include "core/rng.h"
#include "obs/emit.h"

namespace renamelib::proc {
namespace {

Worker* g_worker = nullptr;

std::uint64_t now_ns() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Supervision deadline for the whole run and for the start barrier:
/// generous, so sanitizer builds on a loaded machine still finish.
constexpr std::uint64_t kTimeoutNs = 120'000'000'000ULL;  // 120 s

void brief_sleep() {
  timespec ts{0, 100'000};  // 100 us
  ::nanosleep(&ts, nullptr);
}

/// One-shot start line for the lay.nproc workers: the last to arrive stamps
/// the shared wall-clock origin and opens the gate. A gate that never opens
/// aborts instead of hanging the whole tree.
void start_barrier(const Layout& lay) {
  Control& ctl = *lay.control;
  if (ctl.bar_count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<std::uint32_t>(lay.nproc)) {
    ctl.start_ns.store(now_ns(), std::memory_order_relaxed);
    ctl.bar_open.store(1, std::memory_order_release);
    return;
  }
  const std::uint64_t deadline = now_ns() + kTimeoutNs;
  while (ctl.bar_open.load(std::memory_order_acquire) == 0) {
    RENAMELIB_ENSURE(now_ns() < deadline,
                     "proc backend: barrier timed out (a sibling process "
                     "died or wedged)");
    brief_sleep();
  }
}

/// Seed-derived crash plan in *operation* counts: same victim selection
/// stream as the simulated backend (salt 0xC7A54), thresholds folded into
/// [1, ops_per_proc] so every victim provably reaches its park point.
std::vector<std::int64_t> derive_crash_plan(const api::Scenario& s) {
  std::vector<std::int64_t> crash_at(static_cast<std::size_t>(s.nproc), 0);
  if (!s.crashes.enabled()) return crash_at;
  Rng rng(Rng::derive(s.seed, /*salt=*/0xC7A54ULL));
  std::vector<int> pids(static_cast<std::size_t>(s.nproc));
  for (int p = 0; p < s.nproc; ++p) pids[static_cast<std::size_t>(p)] = p;
  for (std::size_t i = pids.size(); i > 1; --i) {
    std::swap(pids[i - 1], pids[rng.below(i)]);
  }
  const std::size_t victims =
      std::min(s.crashes.max_crashes, static_cast<std::size_t>(s.nproc));
  RENAMELIB_ENSURE(victims < static_cast<std::size_t>(s.nproc),
                   "proc backend needs at least one surviving process "
                   "(max_crashes < nproc)");
  const auto ops = static_cast<std::uint64_t>(s.ops_per_proc);
  for (std::size_t i = 0; i < victims; ++i) {
    const std::uint64_t draw = 1 + rng.below(s.crashes.crash_step_max);
    crash_at[static_cast<std::size_t>(pids[i])] =
        static_cast<std::int64_t>((draw - 1) % ops + 1);
  }
  return crash_at;
}

void fill_kind_table(Control& ctl, const api::Scenario& s) {
  const char* wanted[] = {"",    s.history_kind.c_str(), "fai",
                          "rename", "inc",               "read"};
  for (const char* k : wanted) {
    bool present = false;
    for (std::uint32_t i = 0; i < ctl.nkinds; ++i) {
      if (std::strcmp(ctl.kinds[i], k) == 0) {
        present = true;
        break;
      }
    }
    if (present) continue;
    RENAMELIB_ENSURE(ctl.nkinds < kMaxKinds, "kind table overflow");
    RENAMELIB_ENSURE(std::strlen(k) < kKindLen,
                     "operation kind name too long for the proc mailbox "
                     "kind table");
    std::snprintf(ctl.kinds[ctl.nkinds], kKindLen, "%s", k);
    ++ctl.nkinds;
  }
}

[[noreturn]] void child_main(
    const Layout& lay, int pid, const api::Scenario& s,
    const std::function<void(Ctx&, api::Contribution&)>& body) {
  try {
    obs::ThreadPidScope pid_scope(pid);
    Worker worker(lay, pid, lay.control->crash_at[pid]);
    g_worker = &worker;
    Ctx ctx(pid, Rng::derive(s.seed, static_cast<std::uint64_t>(pid)));
    start_barrier(lay);
    // Victims never return: publish_op parks them for SIGKILL.
    body(ctx, lay.mail(pid).contrib);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "renamelib proc worker %d: %s\n", pid, e.what());
    std::_Exit(70);
  } catch (...) {
    std::fprintf(stderr, "renamelib proc worker %d: unknown exception\n", pid);
    std::_Exit(70);
  }
  // _Exit, not exit: the child shares the parent's stdio buffers and atexit
  // list; running them here would duplicate output and tear down inherited
  // state the parent still owns.
  std::_Exit(0);
}

/// Why a reaped worker's wait status is not the one its role requires.
std::string describe_exit(int status, bool victim) {
  char why[96];
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    return victim ? "exited cleanly instead of dying by SIGKILL"
                  : "exited without publishing its contribution";
  }
  if (WIFSIGNALED(status)) {
    std::snprintf(why, sizeof(why), "killed by signal %d", WTERMSIG(status));
  } else if (WIFEXITED(status)) {
    std::snprintf(why, sizeof(why), "exited with status %d",
                  WEXITSTATUS(status));
  } else {
    std::snprintf(why, sizeof(why), "unrecognized wait status %d", status);
  }
  return why;
}

}  // namespace

std::size_t default_arena_bytes(const api::Scenario& s) {
  const int ring_ops = s.keep_op_samples ? s.ops_per_proc : 0;
  // Generous object slack costs only address space: pages are demand-zero.
  return Layout::bytes_for(s.nproc, ring_ops) + (32u << 20);
}

Worker* Worker::current() noexcept { return g_worker; }

Worker::Worker(const Layout& layout, int pid, std::int64_t crash_at)
    : layout_(layout), pid_(pid), crash_at_(crash_at) {
  if (obs::EventBus::enabled()) {
    events_at_fork_ = obs::EventBus::instance().snapshot();
  }
}

void Worker::publish_op(std::uint64_t value, std::uint64_t steps,
                        const char* kind) {
  Mailbox& m = layout_.mail(pid_);
  if (layout_.ring_ops > 0) {
    const std::uint64_t ix = m.published_ops.load(std::memory_order_relaxed);
    RENAMELIB_ENSURE(ix < static_cast<std::uint64_t>(layout_.ring_ops),
                     "proc op ring overflow");
    if (kind != last_kind_) {
      const Control& ctl = *layout_.control;
      std::uint32_t found = kMaxKinds;
      for (std::uint32_t i = 0; i < ctl.nkinds; ++i) {
        if (std::strcmp(ctl.kinds[i], kind) == 0) {
          found = i;
          break;
        }
      }
      RENAMELIB_ENSURE(found < kMaxKinds,
                       "operation kind missing from the proc kind table");
      last_kind_ = kind;
      last_kind_ix_ = found;
    }
    OpSlot& slot = layout_.ring(pid_)[ix];
    slot.value = value;
    slot.steps = steps;
    slot.kind = last_kind_ix_;
    // Slot first, then the release-increment: an announced slot is fully
    // written even if this process is SIGKILLed on the next instruction.
    m.published_ops.store(ix + 1, std::memory_order_release);
  }
  ++ops_done_;
  if (crash_at_ > 0 && ops_done_ == static_cast<std::uint64_t>(crash_at_)) {
    // Crash point: completed exactly crash_at_ ops. Park visibly and wait
    // for the parent's SIGKILL — the op boundary makes the injection
    // deterministic while the kill itself is a real, unclean process death.
    m.parked.store(1, std::memory_order_release);
    for (;;) brief_sleep();
  }
}

void Worker::publish_done(std::uint64_t proc_steps) {
  Mailbox& mb = layout_.mail(pid_);
  api::Contribution& c = mb.contrib;
  c.finish(proc_steps);
  // Wall time from the shared start stamp (visible since the barrier's
  // acquire); the fold's maximum over survivors is the run's wall time.
  const std::uint64_t start_ns =
      layout_.control->start_ns.load(std::memory_order_relaxed);
  c.metrics.wall_seconds = static_cast<double>(now_ns() - start_ns) / 1e9;
  if (obs::EventBus::enabled()) {
    c.events = obs::EventBus::instance().snapshot() - events_at_fork_;
  }
  mb.ready.store(1, std::memory_order_release);
}

void run_proc(const api::Scenario& s,
              const std::function<void(Ctx&, api::Contribution&)>& body,
              api::Run& run) {
  ShmArena* arena = ShmArena::current();
  RENAMELIB_ENSURE(arena != nullptr,
                   "proc backend requires a live ShmArena (run through "
                   "Workload::run_*_spec, or construct the object under an "
                   "ArenaScope)");
  RENAMELIB_ENSURE(s.nproc <= kMaxProcs,
                   "proc backend supports at most kMaxProcs processes");
  const int ring_ops = s.keep_op_samples ? s.ops_per_proc : 0;
  const Layout lay = Layout::create(*arena, s.nproc, ring_ops);
  Control& ctl = *lay.control;
  fill_kind_table(ctl, s);
  const std::vector<std::int64_t> crash_at = derive_crash_plan(s);
  std::copy(crash_at.begin(), crash_at.end(), ctl.crash_at);

  // Flush before fork so buffered output is not duplicated into children.
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids(static_cast<std::size_t>(s.nproc), -1);
  for (int p = 0; p < s.nproc; ++p) {
    const pid_t pid = ::fork();
    if (pid == 0) child_main(lay, p, s, body);  // never returns
    if (pid < 0) {
      for (int q = 0; q < p; ++q) ::kill(pids[static_cast<std::size_t>(q)], SIGKILL);
      RENAMELIB_ENSURE(false, "proc backend: fork failed");
    }
    pids[static_cast<std::size_t>(p)] = pid;
  }

  // Supervision, under one deadline: SIGKILL each victim once it parks at
  // its crash point, and reap every child as it exits. A victim must die by
  // SIGKILL; a survivor must exit 0 with its mailbox ready. Anything else
  // fails the run, after killing the rest so no worker outlives it (a
  // parked victim would otherwise spin forever).
  const auto nproc = static_cast<std::size_t>(s.nproc);
  std::vector<bool> killed(nproc, false), reaped(nproc, false);
  auto fail = [&](const std::string& why) {
    for (std::size_t q = 0; q < nproc; ++q) {
      if (reaped[q]) continue;
      ::kill(pids[q], SIGKILL);
      while (::waitpid(pids[q], nullptr, 0) < 0 && errno == EINTR) {
      }
    }
    std::fprintf(stderr, "renamelib proc backend: %s\n", why.c_str());
    RENAMELIB_ENSURE(false, "proc backend: supervision failed");
  };
  const std::uint64_t deadline = now_ns() + kTimeoutNs;
  for (std::size_t live = nproc; live > 0;) {
    bool progressed = false;
    for (std::size_t p = 0; p < nproc; ++p) {
      if (reaped[p]) continue;
      const Mailbox& m = lay.mail(static_cast<int>(p));
      const bool victim = crash_at[p] > 0;
      if (victim && !killed[p] &&
          m.parked.load(std::memory_order_acquire) != 0) {
        // Real crash injection at the seed-derived op count.
        ::kill(pids[p], SIGKILL);
        killed[p] = true;
      }
      int status = 0;
      const pid_t w = ::waitpid(pids[p], &status, WNOHANG);
      if (w == 0 || (w < 0 && errno == EINTR)) continue;
      if (w < 0) fail("waitpid failed on worker " + std::to_string(p));
      reaped[p] = true;
      --live;
      progressed = true;
      const bool ok =
          victim ? killed[p] && WIFSIGNALED(status) &&
                       WTERMSIG(status) == SIGKILL
                 : WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                       m.ready.load(std::memory_order_acquire) != 0;
      if (!ok) {
        fail("worker " + std::to_string(p) + " " +
             describe_exit(status, victim));
      }
    }
    if (live == 0) break;
    if (now_ns() >= deadline) {
      fail("timed out waiting for the workers to finish");
    }
    if (!progressed) brief_sleep();
  }

  // Fold each survivor's slot once, in pid order (supervision verified
  // that exactly the non-victims are ready).
  for (std::size_t p = 0; p < nproc; ++p) {
    if (crash_at[p] > 0) continue;
    lay.mail(static_cast<int>(p)).contrib.fold_into(run, /*finished=*/true);
  }
  run.crashed_procs = nproc - run.finished_procs;

  // Per-op samples from the crash-surviving rings (victims'
  // completed ops included; see the file comment in proc_backend.h).
  if (ring_ops > 0) {
    for (int p = 0; p < s.nproc; ++p) {
      const std::uint64_t n =
          lay.mail(p).published_ops.load(std::memory_order_acquire);
      const OpSlot* ring = lay.ring(p);
      for (std::uint64_t i = 0; i < n; ++i) {
        const OpSlot& slot = ring[i];
        RENAMELIB_ENSURE(slot.kind < ctl.nkinds,
                         "corrupt kind index in a proc op ring");
        run.ops.push_back(api::OpSample{p, slot.value, slot.steps,
                                        ctl.kinds[slot.kind]});
      }
    }
  }
}

}  // namespace renamelib::proc
