/// \file
/// \brief The runtime's instrumentation-site catalog: one enum naming every
/// interesting decision point, shared by every observation consumer.
///
/// A Site identifies *where* in the runtime an event happened — a lost CAS
/// race, a lease seize, a balancer traversal. The
/// enum is the single source of truth for three consumers layered on top of
/// obs::emit (obs/emit.h): the event bus's per-site monotone counters
/// (obs/event_bus.h), the flight recorder's post-mortem ring
/// (obs/flight_recorder.h), and the fuzzer's branch-style coverage map
/// (fuzz/coverage.h, whose CovSite is an alias of this enum).
///
/// Numbering is part of the contract: coverage features hash the numeric
/// site id, so renumbering existing sites would invalidate stored coverage
/// fingerprints. Append new sites, never reorder.
///
/// site_name() strings are equally load-bearing: they key the optional
/// `events` section of bench-report JSON (api/report.h), which
/// tools/bench_compare.py diffs by name across commits. Rename a site and
/// its trajectory forks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace renamelib::obs {

/// Instrumentation site identifiers. The (site, feature) pair keys coverage
/// features; the site alone keys event-bus counters and report rows.
enum class Site : std::uint32_t {
  kSchedPoint = 1,     ///< simulated grant: (prev pid, pid, op kind, label)
  kSchedCrash = 2,     ///< simulated crash injection: victim pid
  kCasFail = 3,        ///< Register CAS observed a competing write (label)
  // 4-6: reserved (retired elimination sites); never reuse them.
  kLeaseRefillMint = 7,  ///< lease refill served by minting a fresh ticket
  kLeaseRefillPool = 8,  ///< lease refill served from the escrow pool
  kLeaseSeize = 9,       ///< reclaim scan seized a stale lease (slot pid)
  kLeaseDrop = 10,       ///< seized range dropped (escrow pool full)
  // 11-16: reserved (retired flat-combining sites); never reuse them.
  kNetBalancer = 17,     ///< counting-network balancer traversal (id, port)
  kSplitterStop = 18,    ///< splitter: process stopped (acquired the gadget)
  kSplitterRight = 19,   ///< splitter: process deflected right
  kSplitterDown = 20,    ///< splitter: process deflected down
};

/// One past the largest Site value — array extents for per-site state.
inline constexpr std::size_t kSiteCount =
    static_cast<std::size_t>(Site::kSplitterDown) + 1;

/// Stable snake_case label of a site (report JSON keys, CLI tables).
/// Returns "unknown" for ids outside the catalog.
constexpr const char* site_name(Site site) noexcept {
  switch (site) {
    case Site::kSchedPoint: return "sched_point";
    case Site::kSchedCrash: return "sched_crash";
    case Site::kCasFail: return "cas_fail";
    case Site::kLeaseRefillMint: return "lease_refill_mint";
    case Site::kLeaseRefillPool: return "lease_refill_pool";
    case Site::kLeaseSeize: return "lease_seize";
    case Site::kLeaseDrop: return "lease_drop";
    case Site::kNetBalancer: return "net_balancer";
    case Site::kSplitterStop: return "splitter_stop";
    case Site::kSplitterRight: return "splitter_right";
    case Site::kSplitterDown: return "splitter_down";
  }
  return "unknown";
}

/// One-line description of what a site's counter measures (CLI tables,
/// `renamectl events`).
constexpr const char* site_doc(Site site) noexcept {
  switch (site) {
    case Site::kSchedPoint: return "simulated scheduler grants";
    case Site::kSchedCrash: return "simulated crash injections";
    case Site::kCasFail: return "Register CAS lost to a competing write";
    case Site::kLeaseRefillMint: return "lease refill minted a fresh range";
    case Site::kLeaseRefillPool: return "lease refill reused an escrowed range";
    case Site::kLeaseSeize: return "reclaim scan seized a stale lease";
    case Site::kLeaseDrop: return "seized range dropped (escrow pool full)";
    case Site::kNetBalancer: return "counting-network balancer traversals";
    case Site::kSplitterStop: return "splitter acquisitions (STOP outcome)";
    case Site::kSplitterRight: return "splitter RIGHT deflections";
    case Site::kSplitterDown: return "splitter DOWN deflections";
  }
  return "unknown site";
}

/// Master switch for the observation consumers: one process-wide relaxed
/// mask with a bit per consumer. obs::emit loads the mask once; with every
/// consumer off the whole hook is one relaxed load + branch, so the sites
/// on hot paths (balancer traversals) stay effectively free.
class Gate {
 public:
  enum Bit : std::uint32_t {
    kCoverage = 1u << 0,  ///< fuzz::Coverage map (fuzz/coverage.h)
    kBus = 1u << 1,       ///< obs::EventBus counters (obs/event_bus.h)
    kRecorder = 1u << 2,  ///< obs::FlightRecorder ring (obs/flight_recorder.h)
  };

  static std::uint32_t mask() noexcept {
    return mask_.load(std::memory_order_relaxed);
  }

  static void set(Bit bit, bool on) noexcept {
    if (on) {
      mask_.fetch_or(bit, std::memory_order_relaxed);
    } else {
      mask_.fetch_and(~static_cast<std::uint32_t>(bit),
                      std::memory_order_relaxed);
    }
  }

  static bool enabled(Bit bit) noexcept { return (mask() & bit) != 0; }

 private:
  static std::atomic<std::uint32_t> mask_;
};

}  // namespace renamelib::obs
