// Monotone-consistent counter (Sec. 8.1).
//
// increment: acquire a fresh name from the adaptive strong renaming object,
//            then write it to a max register.
// read:      read the max register.
//
// Lemma 4: the counter is monotone-consistent — reads are totally ordered,
// never below the number of *completed* increments and never above the
// number of *started* increments — with expected O(log v) steps per
// increment (v = increments started so far). It is NOT linearizable
// (Sec. 8.1 gives a three-process counterexample, reproduced in the tests).
#pragma once

#include "counting/max_register.h"
#include "renaming/adaptive_strong.h"

namespace renamelib::counting {

class MonotoneCounter {
 public:
  MonotoneCounter() = default;

  /// Variant with explicit renaming options (e.g. hardware comparators for
  /// the deterministic mode of Sec. 1's Discussion).
  explicit MonotoneCounter(renaming::AdaptiveStrongRenaming::Options options)
      : renaming_(pool_, options) {}

  /// Increments the counter. Multiple increments per process are supported:
  /// each operation mints a fresh identity (ctx.mint_token()).
  void increment(Ctx& ctx);

  /// Returns a monotone-consistent count.
  std::uint64_t read(Ctx& ctx);

  struct IncrementStats {
    std::uint64_t name = 0;
    std::uint64_t steps = 0;
  };
  IncrementStats increment_instrumented(Ctx& ctx);

 private:
  NodePool pool_;  ///< shared by the renaming and the max register
  renaming::AdaptiveStrongRenaming renaming_{pool_, {}};
  UnboundedMaxRegister max_{pool_};
};

}  // namespace renamelib::counting
