// Linear-probing renaming — the classic baseline (Sec. 1, citing [4, 11]):
// compete in test-and-set objects 1, 2, 3, ... in order until one is won.
// Tight and adaptive (names in 1..k) but with Theta(k) probes per process —
// the linear cost our algorithms beat exponentially.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "renaming/renaming.h"
#include "tas/hardware_tas.h"
#include "tas/rat_race_tas.h"

namespace renamelib::renaming {

class LinearProbeRenaming final : public IRenaming {
 public:
  /// `capacity` bounds the number of names ever requested (the list of TAS
  /// objects; the paper assumes an infinite list).
  explicit LinearProbeRenaming(std::uint64_t capacity, bool hardware_tas = true);

  std::uint64_t rename(Ctx& ctx, std::uint64_t initial_id) override;

  struct Outcome {
    std::uint64_t name = 0;
    std::uint64_t probes = 0;
  };
  Outcome rename_instrumented(Ctx& ctx);

 private:
  std::uint64_t capacity_;
  bool hardware_;
  std::unique_ptr<tas::HardwareTas[]> hw_slots_;
  NodePool pool_;  ///< every RatRace slot's tree nodes
  std::deque<tas::RatRaceTas> rr_slots_;
};

}  // namespace renamelib::renaming
