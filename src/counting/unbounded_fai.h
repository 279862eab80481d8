// Unbounded linearizable fetch-and-increment — toward the paper's "optimal
// linearizable counter" future-work direction (Sec. 9).
//
// Chains the bounded m-valued objects of Sec. 8.2 in epochs of doubling
// capacity. Epoch e (capacity m_e) serves values base_e .. base_e + m_e - 2
// through its bounded object; its last value base_e + m_e - 1 is claimed by
// the unique process that advances the epoch pointer (CAS), so the assigned
// values are exactly 0, 1, 2, ... with no gaps. Operations that observe a
// saturated epoch and lose the advancing CAS retry in the next epoch.
//
// Linearizability sketch (checked by the Wing–Gong tests): each epoch's
// values linearize within the epoch by the bounded object's linearizability;
// the epoch pointer is monotone, so an operation invoked after another
// responded can never obtain a value from an earlier epoch; and the epoch
// advancer's value sits exactly between the two epochs.
//
// Amortized cost: O(log k log m_e) per op in the current epoch, i.e.
// O(log k log v) for value v.
#pragma once

#include <cstdint>

#include "core/lazy.h"
#include "counting/bounded_fai.h"

namespace renamelib::counting {

class UnboundedFetchAndIncrement {
 public:
  explicit UnboundedFetchAndIncrement(
      renaming::AdaptiveStrongRenaming::Options options =
          renaming::AdaptiveStrongRenaming::Options{});

  /// Returns the next value: 0, 1, 2, ... (no bound, no gaps).
  std::uint64_t fetch_and_increment(Ctx& ctx);

  /// Current epoch index (quiescent diagnostic).
  std::uint64_t current_epoch() const { return epoch_.peek(); }

 private:
  static constexpr std::uint64_t kFirstCapacity = 8;
  static constexpr std::uint32_t kMaxEpochs = 40;

  BoundedFetchAndIncrement& epoch_object(const Ctx& ctx, std::uint64_t e);
  static std::uint64_t capacity_of(std::uint64_t e);
  static std::uint64_t base_of(std::uint64_t e);

  renaming::AdaptiveStrongRenaming::Options options_;
  Register<std::uint64_t> epoch_{0};
  // Lock-free epoch table: each epoch object is CAS-published on first touch
  // (allocator-level bookkeeping, like the paper's assumption of pre-existing
  // objects; the protocol's own steps all go through Register/Ctx). Every
  // epoch borrows pool_.
  NodePool pool_;
  LazyArray<BoundedFetchAndIncrement, kMaxEpochs> epochs_{pool_};
};

}  // namespace renamelib::counting
