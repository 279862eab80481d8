/// \file
/// \brief The event bus: process-wide per-site monotone counters, sharded
/// per thread so contended protocols can be observed without perturbing the
/// contention being measured.
///
/// One cache-line-padded shard per thread (assigned through a thread_local
/// slot index), each cell written with relaxed single-writer increments, and
/// a mergeable, trivially copyable snapshot. A snapshot taken after the
/// writing threads joined is exact; one taken mid-run is a per-cell monotone
/// lower bound — both properties inherited directly from the counters being
/// monotone.
///
/// Counters never reset during a run; consumers measure *deltas* between two
/// snapshots (EventSnapshot::operator-), which is how api::Workload attaches
/// a per-run event section to Run without racing concurrent bus writers.
/// reset() exists for test isolation only and must not race an ongoing
/// instrumented execution.
///
/// Enablement is a Gate bit (obs/sites.h): when off, obs::emit skips the bus
/// entirely and the fast paths pay one relaxed mask load + branch in total.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/sites.h"

namespace renamelib::obs {

/// An immutable, mergeable view of per-site event counts. Algebraically a
/// vector of monotone counters: merge is element-wise addition, delta is
/// element-wise (saturating) subtraction — the same mergeability contract
/// that lets stats::LatencySnapshot fold across threads, processes and runs.
class EventSnapshot {
 public:
  EventSnapshot() { counts_.fill(0); }

  /// Count recorded for `site` (0 for sites never hit).
  std::uint64_t count(Site site) const noexcept {
    const auto i = static_cast<std::size_t>(site);
    return i < kSiteCount ? counts_[i] : 0;
  }

  /// Sets the count of one site (snapshot assembly and report parsing).
  void set(Site site, std::uint64_t n) noexcept {
    const auto i = static_cast<std::size_t>(site);
    if (i < kSiteCount) counts_[i] = n;
  }

  /// Element-wise addition (merging runs or processes).
  void merge(const EventSnapshot& o) noexcept {
    for (std::size_t i = 0; i < kSiteCount; ++i) counts_[i] += o.counts_[i];
  }

  /// Element-wise delta `*this - earlier`, saturating at 0 per cell so a
  /// reset between the two snapshots cannot produce a wrapped count.
  EventSnapshot operator-(const EventSnapshot& earlier) const noexcept {
    EventSnapshot d;
    for (std::size_t i = 0; i < kSiteCount; ++i) {
      d.counts_[i] =
          counts_[i] >= earlier.counts_[i] ? counts_[i] - earlier.counts_[i] : 0;
    }
    return d;
  }

  /// Sum over every site.
  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts_) t += c;
    return t;
  }

  /// True iff every site's count is zero.
  bool empty() const noexcept { return total() == 0; }

  /// The nonzero sites as (site, count), ascending by site id — the sparse
  /// form reports serialize and CLI tables print.
  std::vector<std::pair<Site, std::uint64_t>> nonzero() const;

  /// Equality (tests): exact per-site comparison.
  bool operator==(const EventSnapshot& o) const noexcept {
    return counts_ == o.counts_;
  }

 private:
  std::array<std::uint64_t, kSiteCount> counts_;
};

/// The process-wide bus. count() is wait-free: a thread_local shard lookup
/// plus one relaxed increment on a cell owned by (at most a few) threads.
class EventBus {
 public:
  /// Shard count. Threads map onto shards round-robin via a thread_local
  /// index, so up to kShards concurrent threads write disjoint cache lines;
  /// beyond that shards are shared and the relaxed fetch_add stays correct,
  /// merely contended.
  static constexpr std::size_t kShards = 64;

  /// The process-wide instance.
  static EventBus& instance();

  /// Turns bus recording on or off (Gate::kBus; off is the default).
  static void set_enabled(bool on) { Gate::set(Gate::kBus, on); }
  /// True iff obs::emit feeds the bus.
  static bool enabled() { return Gate::enabled(Gate::kBus); }

  /// Records one event at `site`. Safe from any thread; relaxed,
  /// single-writer per shard cell in the common (<= kShards threads) case.
  void count(Site site) noexcept {
    const auto i = static_cast<std::size_t>(site);
    if (i >= kSiteCount) return;
    shards_[shard_index()].cells[i].fetch_add(1, std::memory_order_relaxed);
  }

  /// Merged view across all shards. Exact once writers have quiesced;
  /// a mid-run snapshot is a per-site monotone lower bound.
  EventSnapshot snapshot() const;

  /// Zeroes every cell. Test isolation only — must not race an ongoing
  /// instrumented execution (deltas, not resets, are the run-scoped API).
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kSiteCount> cells;
  };

  EventBus();

  /// This thread's shard, assigned round-robin on first use.
  static std::size_t shard_index() noexcept;

  std::unique_ptr<Shard[]> shards_;
};

}  // namespace renamelib::obs
