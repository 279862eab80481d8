/// \file
/// \brief Schema-driven generation of valid FuzzCases.
///
/// The generator never hard-codes an implementation: it walks
/// Registry::describe() and mints random *valid* specs straight from the
/// typed option schemas — integers at and near their declared boundaries
/// (min, min+1, the default, a random interior point, and a capped maximum
/// that keeps construction cheap), every enum choice, and nested spec
/// options recursing into the target facet's own catalog up to a fixed
/// depth. Scenarios pair the spec with adversarial geometry: crash
/// storms, scheduler strategies, hot read mixes, and (for small cases)
/// exhaustive schedule exploration via sim/explore.
///
/// sanitize() is the one place runtime invariants are enforced — the library
/// aborts (RENAMELIB_ENSURE) on geometry a schema cannot express, e.g. a
/// lease broker serving more pids than its procs= slots — so every generated
/// or mutated case passes through it before running. It is idempotent:
/// sanitizing a sanitized case changes nothing, which keeps shrinking and
/// replay stable.
#pragma once

#include <vector>

#include "api/registry.h"
#include "core/rng.h"
#include "fuzz/corpus.h"

namespace renamelib::fuzz {

/// Mints valid FuzzCases from the registry's own catalog.
class Generator {
 public:
  /// Deepest nested-spec chain a generated spec may carry (the outer spec
  /// counts as depth 1).
  static constexpr int kMaxSpecDepth = 3;

  explicit Generator(const api::Registry& registry);

  /// The catalog snapshot generation draws from.
  const std::vector<api::EntryDescription>& catalog() const {
    return catalog_;
  }

  /// A case exercising exactly `entry` (random options, random scenario) —
  /// the phase that guarantees every registered entry runs at least once.
  FuzzCase case_for_entry(const api::EntryDescription& entry, Rng& rng) const;

  /// A case for a uniformly random catalog entry.
  FuzzCase random_case(Rng& rng) const;

  /// A mutant of `c`: 1-3 tweaks drawn from {re-roll one spec option, drop
  /// one option, regrow a nested inner, bump geometry, toggle the crash
  /// plan, change the read mix, switch scheduler/workload, reseed}.
  /// Sanitized.
  FuzzCase mutate(const FuzzCase& c, Rng& rng) const;

  /// A random valid Spec for `entry`; `depth` counts this level (nested
  /// options stop recursing at kMaxSpecDepth).
  api::Spec random_spec(const api::EntryDescription& entry, Rng& rng,
                        int depth) const;

  /// Enforces every runtime invariant a case could trip (see file comment):
  /// geometry clamps, workload legality per facet/entry, integer options of
  /// exploration cases capped at a small size, lease procs= at
  /// least the scenario's nproc (recursively through nested specs), bounded
  /// inner dispensers under a lease wide enough not to saturate mid-run.
  /// Idempotent; falls back to the entry's bare default spec if the spec
  /// no longer validates after repair (never expected, but fuzzers assume
  /// the worst).
  void sanitize(FuzzCase& c) const;

 private:
  const api::EntryDescription* entry_of(api::Facet facet,
                                        const std::string& name) const;
  std::string random_int_value(const api::OptionSchema& o, Rng& rng) const;
  void random_scenario(FuzzCase& c, Rng& rng) const;
  /// `spec` with every integer option above `cap` (nested inners included)
  /// lowered to it, kept at or above the schema minimum and a power of two
  /// where the schema asks for one.
  api::Spec cap_ints(const api::Spec& spec, api::Facet facet,
                     std::uint64_t cap) const;
  api::Spec repair_spec(const api::Spec& spec, api::Facet facet,
                        int nproc) const;

  const api::Registry& registry_;
  std::vector<api::EntryDescription> catalog_;
};

}  // namespace renamelib::fuzz
