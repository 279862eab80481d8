// Cache-line-striped shared counter.
//
// The paper's contention/step-complexity trade-off, attacked from the
// hardware side: instead of one hot fetch&add register, spread the count over
// S cache-line-padded slots so concurrent operations (mostly) touch disjoint
// lines. Two usage modes, which must not be mixed on one instance:
//
//   * statistic mode — increment() bumps the caller's pid-hashed stripe
//     (1 shared step, contention-free for <= S processes) and read() combines
//     all stripes with one collect (S loads). read() is monotone across
//     non-overlapping reads: every stripe is monotone and a later collect
//     loads each stripe after the earlier collect did.
//   * dispenser mode — next() hands out unique values ICounter-style. A
//     spray ticket t routes the op to stripe t mod S, the stripe's slot
//     fetch&add yields the stripe-local rank v, and the value is v*S + i.
//     Because the spray distributes tickets exactly round-robin, the handed
//     values form a dense prefix {0..T-1} once quiescent — but not in real
//     time order, so the object is quiescently consistent, not linearizable
//     (a delayed op can publish a small value after later ops finished).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/ctx.h"
#include "core/register.h"

namespace renamelib::sharded {

class StripedCounter {
 public:
  struct Options {
    std::size_t stripes = 64;  ///< number of padded slots
  };

  explicit StripedCounter(Options options);

  /// Statistic mode: add 1 to the caller's stripe (pid mod S). One shared step.
  void increment(Ctx& ctx);

  /// Statistic mode: combine all stripes (S loads). Monotone across
  /// non-overlapping reads; concurrent increments may or may not be included.
  std::uint64_t read(Ctx& ctx);

  /// Dispenser mode: unique values, dense {0..T-1} at quiescence (see file
  /// comment). Sequential calls return exactly 0, 1, 2, ...
  std::uint64_t next(Ctx& ctx);

  std::size_t stripes() const noexcept { return options_.stripes; }

 private:
  Options options_;
  /// One stripe per cache line.
  std::unique_ptr<PaddedRegister<std::uint64_t>[]> slots_;
  // Ticket dispenser for dispenser mode. Unlike a counting network's
  // entry-wire spray (where any wire distribution counts correctly), the
  // dense-prefix property REQUIRES exact round-robin tickets, so this is
  // load-bearing protocol state: an instrumented register, charged a step
  // and schedulable by the simulator's adversary like any other shared
  // access. Dispenser mode therefore costs 2 steps/op and still funnels
  // every op through one register — its win over a single fetch&add is
  // hardware-mode cache behavior (the read-modify-write that carries the
  // value lands on S spread-out lines), not paper-model step count.
  Register<std::uint64_t> spray_{0};
};

}  // namespace renamelib::sharded
