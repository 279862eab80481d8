/// \file
/// \brief The coverage-guided spec/schedule fuzzer: run, judge, shrink,
/// commit.
///
/// run_case() is the one facet judge — it constructs the case's object,
/// clamps the geometry to the object's own declared limits (capacity,
/// max_procs, renaming request budgets; idempotently, so a replayed case
/// re-clamps to the same execution), drives the facet workload (standard,
/// churn, or exhaustive schedule exploration) on the backend it is given,
/// and evaluates every oracle the entry's declared semantics imply. The
/// corpus_replay test, `fuzzctl replay` and the conformance sweeps of every
/// backend (tests/conformance_sweep.h) call exactly this function, so a new
/// entry or facet is conformance-tested by being judged here.
///
/// Fuzzer wraps run_case in the search loop:
///   1. catalog pass — one generated case per Registry::describe() entry,
///      so every registered implementation of every facet runs at least
///      once per session (the smoke gate asserts this),
///   2. coverage-guided pass — the remaining budget mutates "interesting"
///      inputs: after each run the global fuzz::Coverage map is folded into
///      (cell, log-bucket) features, and an input that produced a feature
///      this Fuzzer instance has never seen joins the mutation queue.
///
/// On an oracle failure the (spec, scenario, seed) triple is shrunk
/// greedily — fewer procs, fewer ops, no crashes, spec options
/// walked toward their schema minimum or dropped to defaults, nested inners
/// reduced — accepting any reduction that still fails, to a fixpoint or the
/// shrink budget. The minimized case is serialized into the output corpus
/// directory, ready to commit under tests/corpus/.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/rng.h"
#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"

namespace renamelib::fuzz {

/// Judgement of one executed case.
struct CaseResult {
  /// False when the clamped geometry cannot run at all (e.g. a capacity-2
  /// dispenser cannot serve even one op per process) — skipped, not failed.
  bool ran = false;
  bool ok = true;
  std::vector<OracleResult> failures;  ///< failed oracles (empty when ok)
  std::uint64_t attempted = 0;         ///< operations started (post-clamp)
  std::size_t crashed_procs = 0;
  std::uint64_t coverage_fingerprint = 0;  ///< Coverage::fingerprint() of the run
};

/// An injectable extra invariant over a run's collected values — the
/// mutation self-check deliberately injects a failing one and asserts the
/// fuzzer catches, shrinks, and emits it.
using ExtraOracle =
    std::function<OracleResult(const FuzzCase&, const std::vector<std::uint64_t>&)>;

/// Runs one case standalone (coverage enabled, map reset first) on
/// `backend` and judges it. Corpus cases and the fuzzer run on the
/// simulated backend, where a case replays deterministically. On the proc
/// backend the object is built in a shared-memory arena that outlives the
/// run, and Wing–Gong is skipped (the backend records no history). Throws
/// std::invalid_argument when the case's spec does not validate, for
/// crashes on the hardware backend, and for Work::kExplore on any backend
/// but the simulated one.
CaseResult run_case(const FuzzCase& c, const ExtraOracle& extra = nullptr,
                    api::Backend backend = api::Backend::kSimulated);

/// Search-loop configuration.
struct FuzzOptions {
  std::uint64_t seed = 1;    ///< everything derives from this
  int iterations = 200;      ///< total cases to run (catalog pass included)
  std::string out_dir;       ///< shrunk failures land here; empty = don't write
  int shrink_budget = 250;   ///< max extra executions spent minimizing a failure
  ExtraOracle extra_oracle;  ///< injected invariant (see ExtraOracle)
};

/// What a fuzzing session did — every field deterministic in (options, build).
struct FuzzSummary {
  int iterations = 0;
  int skipped = 0;             ///< cases whose geometry could not run
  int interesting = 0;         ///< inputs that produced a new coverage feature
  int failures = 0;            ///< oracle failures (after shrinking)
  std::size_t entries_total = 0;    ///< Registry::describe() size
  std::size_t entries_covered = 0;  ///< entries that ran at least once
  std::size_t coverage_features = 0;  ///< distinct (cell, bucket) features seen
  std::uint64_t fingerprint = 0;   ///< order-sensitive combined coverage hash
  std::vector<std::string> failure_files;  ///< written corpus repro paths
  std::vector<std::string> failure_notes;  ///< one line per failure
};

/// The coverage-guided search loop (see file comment).
class Fuzzer {
 public:
  explicit Fuzzer(FuzzOptions options);

  /// Runs the session: catalog pass, then coverage-guided mutation.
  FuzzSummary run();

  /// Greedily minimizes a failing case (public for tests; run() calls it on
  /// every failure). Returns `c` unchanged when `c` does not fail.
  FuzzCase shrink(const FuzzCase& c, int budget) const;

 private:
  /// run_case + novelty accounting against this instance's seen-feature map.
  CaseResult run_tracked(const FuzzCase& c, std::size_t& new_features);
  void record_failure(const FuzzCase& c, const CaseResult& r,
                      FuzzSummary& summary);

  FuzzOptions options_;
  Generator generator_;
  Rng rng_;
  std::vector<std::uint8_t> seen_;  ///< max log-bucket seen per coverage cell
  std::vector<FuzzCase> queue_;     ///< interesting inputs, mutation pool
  std::uint64_t fingerprint_ = 0;
};

}  // namespace renamelib::fuzz
