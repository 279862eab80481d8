// Adaptive strong renaming (Sec. 6.2) — the paper's headline algorithm.
//
// Stage 1 (TempName): acquire a unique temporary name from the randomized
// splitter tree; with k participants names are <= k^c w.h.p. and cost
// O(log k) steps w.h.p.
//
// Stage 2: walk the unbounded adaptive renaming network (Sec. 6.1 structure,
// lazily traversed) from input port = temporary name; each comparator is a
// two-process test-and-set, winner up. The output port is the final name.
//
// Theorem 3: names are exactly 1..k; expected O(log k) steps with an AKS
// base. With our constructible Batcher base the traversal is O(log^2 k)
// comparators (c = 2 in Theorem 2) — the trade the paper itself recommends
// (Sec. 1 Discussion); benches report both the measured Batcher cost and the
// projected AKS cost.
//
// Comparator arbitration objects are materialized on first touch and found
// by direct indexing on the comparator's canonical identity (component,
// phase, lo wire; adaptive/arbiter_index.h), so the object's memory footprint
// is proportional to what executions actually visit, not to the
// (astronomical) network size. Arbiters and splitter-tree nodes come from one
// NodePool (core/node_pool.h): the object's own, or an enclosing object's.
#pragma once

#include <cstdint>
#include <variant>

#include "adaptive/adaptive_network.h"
#include "adaptive/arbiter_index.h"
#include "renaming/renaming.h"
#include "splitter/temp_name.h"
#include "tas/hardware_tas.h"
#include "tas/two_process_tas.h"

namespace renamelib::renaming {

/// Comparator arbitration flavor (see renaming_network.h).
enum class AdaptiveComparatorKind { kRandomized, kHardware };

class AdaptiveStrongRenaming final : public IRenaming {
 public:
  struct Options {
    AdaptiveComparatorKind comparators = AdaptiveComparatorKind::kRandomized;
    /// Temporary names above this trigger a fresh TempName descent, keeping
    /// ports within the supported stage geometry (2^31).
    std::uint64_t max_temp_name = 1ULL << 31;
  };

  AdaptiveStrongRenaming() : AdaptiveStrongRenaming(Options{}) {}
  explicit AdaptiveStrongRenaming(Options options);
  /// An object whose nodes come from `pool`, an enclosing object's.
  AdaptiveStrongRenaming(NodePool& pool, Options options);

  /// Acquires a name in 1..k (k = total requests so far, adaptively).
  std::uint64_t rename(Ctx& ctx, std::uint64_t initial_id) override;

  struct Outcome {
    std::uint64_t name = 0;
    std::uint64_t temp_name = 0;
    std::uint64_t comparators = 0;  ///< TAS objects competed in (stage 2)
    std::uint64_t temp_retries = 0;
  };
  Outcome rename_instrumented(Ctx& ctx, std::uint64_t initial_id);

  /// Distinct arbiters materialized so far (quiescent diagnostic).
  std::size_t materialized_comparators() const;

  const adaptive::AdaptiveNetwork& network() const noexcept { return network_; }
  const NodePool& pool() const noexcept { return pool_; }

 private:
  static Options checked(Options options);

  Options options_;
  NodePool pool_;
  splitter::TempName temp_name_{pool_};
  adaptive::AdaptiveNetwork network_;
  // Arbiters live inline in chunks of a lock-free index over CompRef, built
  // on first touch: allocator-level bookkeeping standing in for the paper's
  // pre-existing infinite network, not a protocol step. Only the index for
  // options_.comparators is constructed; the counting stack builds
  // thousands of these objects, so the other would be pure setup cost.
  using Arbiters = std::variant<adaptive::ArbiterIndex<tas::TwoProcessTas>,
                                adaptive::ArbiterIndex<tas::HardwareTas>>;
  static Arbiters make_arbiters(AdaptiveComparatorKind kind, NodePool& pool);
  Arbiters arbiters_;
};

}  // namespace renamelib::renaming
