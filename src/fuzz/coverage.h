/// \file
/// \brief Branch-style execution coverage for the spec/schedule fuzzer.
///
/// A process-wide map of cheap counters, ticked from the interesting
/// decision points of the runtime — scheduler grants in the simulated
/// executor (which pid ran after which, on what kind of shared step, in
/// which protocol phase), CAS-failure paths in core/Register, and the lease
/// broker's refill/pool-grant/seize events. The fuzzer (src/fuzz/fuzzer.h)
/// resets the map before each generated execution and afterwards folds the
/// hit cells into an AFL-style (cell, log-bucketed count) feature set: an
/// input that lights up a feature no previous input produced is
/// "interesting" and kept for mutation, which is what steers the search
/// toward rare interleavings instead of re-sampling the common ones.
///
/// The hooks are free when idle: every instrumentation site checks one
/// relaxed atomic flag and branches away, so benches and tests that never
/// enable coverage pay a load+branch on their *slow* paths only (the hooks
/// sit on failure/refill paths, never on a fast path's success branch).
/// Hits are relaxed increments on a fixed-size array — safe from any
/// thread, and deterministic under the simulated backend because grants
/// serialize all shared-memory activity.
///
/// Features must be reproducible across process runs: NEVER feed raw
/// pointers into `hit` (allocation addresses vary run to run) — use pids,
/// step kinds, slot indices, and hash_str() of label strings.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/sites.h"

namespace renamelib::fuzz {

/// Instrumentation site identifiers — the shared obs::Site catalog
/// (obs/sites.h is the single source of truth; the event bus and flight
/// recorder consume the same ids). The (site, feature) pair is hashed into
/// the map, so two sites never alias by construction alone — only by hash
/// collision, which the map size keeps rare.
using CovSite = obs::Site;

/// The process-wide coverage map. All methods are thread-safe; reset() and
/// observe() must not race with an ongoing instrumented execution (the
/// fuzzer calls them strictly between runs).
class Coverage {
 public:
  /// Counter cells in the map. Power of two; large enough that the few
  /// hundred distinct features a run can produce rarely collide.
  static constexpr std::size_t kMapSize = 1 << 15;

  /// The process-wide instance.
  static Coverage& instance();

  /// Turns the instrumentation hooks on or off (off is the default; the
  /// switch is the obs::Gate coverage bit, so obs::emit's single mask load
  /// covers the disabled cost of this consumer too).
  static void set_enabled(bool on) { obs::Gate::set(obs::Gate::kCoverage, on); }
  /// True iff hooks record hits.
  static bool enabled() { return obs::Gate::enabled(obs::Gate::kCoverage); }

  /// Zeroes every cell (start of one measured execution).
  void reset();

  /// Records one hit of `site` with a data-dependent `feature`.
  void hit(CovSite site, std::uint64_t feature) noexcept {
    const std::uint64_t h =
        mix(static_cast<std::uint64_t>(site) * 0x9E3779B97F4A7C15ULL ^ feature);
    map_[static_cast<std::size_t>(h & (kMapSize - 1))].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// The nonzero cells of the map as (cell index, log-bucketed count):
  /// counts are folded into AFL-style buckets 1, 2, 3, 4–7, 8–15, 16–31,
  /// 32–127, 128+ so "hit a few more times" is not endlessly novel.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> observe() const;

  /// Order-insensitive hash of observe() — equal iff the bucketed coverage
  /// of two runs is equal. Used by determinism checks.
  std::uint64_t fingerprint() const;

  /// Stable FNV-1a hash of a NUL-terminated string (labels); never hash the
  /// pointer itself.
  static std::uint64_t hash_str(const char* s) noexcept {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (; s != nullptr && *s != '\0'; ++s) {
      h = (h ^ static_cast<unsigned char>(*s)) * 0x100000001B3ULL;
    }
    return h;
  }

  /// splitmix64 finalizer — the map's index mixer, public so callers can
  /// combine multi-part features before hitting.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

 private:
  Coverage();

  std::unique_ptr<std::atomic<std::uint32_t>[]> map_;
};

}  // namespace renamelib::fuzz
