// Deterministic per-process pseudo-randomness.
//
// The paper's algorithms are randomized against a strong adaptive adversary;
// reproducible experiments therefore require that each simulated process owns
// a private, seedable generator whose draws are part of the recorded
// execution. We use xoshiro256** (public domain, Blackman & Vigna) seeded via
// splitmix64, which is the conventional pairing.
#pragma once

#include <array>
#include <cstdint>

namespace renamelib {

/// splitmix64 step; used to expand seeds and derive child seeds.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// A small, fast, deterministic PRNG (xoshiro256**).
///
/// Not cryptographic. One instance per process/thread; instances are cheap
/// to copy, which snapshots the stream.
class Rng {
 public:
  /// Seeds the generator; two generators with the same seed produce the same
  /// stream.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform value in [0, bound). Unbiased (rejection sampling).
  /// Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Fair coin flip.
  bool coin() noexcept { return (next() >> 63) != 0; }

  /// Derives an independent child seed; deterministic in (parent seed, salt).
  static std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) noexcept;

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace renamelib
