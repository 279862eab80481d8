/// \file
/// \brief The unified counter interface of the public API.
///
/// Every counting-flavored shared object in renamelib — the paper's bounded
/// and unbounded fetch-and-increment (Sec. 8.2), renaming-backed value
/// dispensers, counting networks [26], the sharded striped counter, and the
/// hardware baselines — is usable through ICounter: next() hands the calling
/// operation its value. A single interface means one conformance suite, one
/// bench harness, and N+M instead of N*M wiring between objects and
/// scenarios.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ctx.h"

namespace renamelib::api {

/// What a counter's handed-out values guarantee.
enum class Consistency {
  /// Passes Wing–Gong on concurrent histories (bounded/unbounded FAI).
  kLinearizable,
  /// Values unique; exactly 0..T-1 once quiescent, but an operation's value
  /// need not respect real-time order (counting networks).
  kQuiescent,
  /// Values unique and dense per execution, order arbitrary (renaming-backed
  /// dispensers — the Sec. 8.1 non-linearizability argument applies).
  kDense,
  /// Readable-counter level (Lemma 4): reads are totally ordered, never below
  /// the completed and never above the started increment count — but need not
  /// respect real-time order (the monotone counter, striped statistic mode).
  kMonotone,
  /// Escrow-leased level: values unique, but a pid-held lease withholds the
  /// undrained tail of its range, so after T operations values are < T + p*Q
  /// (p pids, quota Q) rather than a dense prefix (the lease wrapper).
  kEscrow,
};

/// Human-readable label for a Consistency level ("linearizable", ...).
const char* consistency_name(Consistency c);

/// An arithmetic run of counter values: base, base+stride, ...,
/// base+(count-1)*stride. The unit of ICounter::next_range.
struct ValueRange {
  std::uint64_t base = 0;
  std::uint64_t stride = 1;
  std::uint64_t count = 0;
};

/// Abstract counter: one next() operation, one declared consistency level,
/// an optional saturation bound. Implemented by the adapters in
/// api/counters.h and api/sharded_counters.h; constructed from spec strings
/// by the Registry.
class ICounter {
 public:
  /// capacity() value meaning "no saturation bound".
  static constexpr std::uint64_t kUnbounded = ~0ULL;

  virtual ~ICounter() = default;

  /// Returns this operation's counter value (0, 1, 2, ...). Thread-safe;
  /// every shared step is charged to `ctx`.
  virtual std::uint64_t next(Ctx& ctx) = 0;

  /// Batched mint: appends `k` of this counter's values to `out` as
  /// arithmetic runs (ValueRange). Values obey exactly the same uniqueness /
  /// density contract as k separate next() calls — the default is literally
  /// that loop. A counter whose geometry admits a cheaper ranged mint may
  /// override it, and a wrapping counter may forward it to its inner.
  virtual void next_range(Ctx& ctx, std::uint64_t k,
                          std::vector<ValueRange>& out) {
    for (std::uint64_t i = 0; i < k; ++i) {
      out.push_back(ValueRange{next(ctx), 1, 1});
    }
  }

  /// Saturation bound: values are < capacity(); kUnbounded if none. Bounded
  /// objects keep returning capacity()-1 once exhausted (the paper's
  /// saturating sequential specification).
  virtual std::uint64_t capacity() const { return kUnbounded; }

  virtual Consistency consistency() const = 0;
};

}  // namespace renamelib::api
