/// \file
/// \brief FuzzCase — the replayable (spec, scenario, seed) triple — and its
/// JSON corpus format.
///
/// A FuzzCase pins everything a generated execution depends on: the facet
/// and canonical spec text, the workload shape (standard facet workload,
/// acquire/release churn, or exhaustive schedule exploration), the scenario
/// geometry (procs, ops, adversary, crash plan, read mix), and the seed.
/// Under the simulated backend that triple is a pure function — the same
/// case replays the same execution, byte for byte — which is what makes
/// shrunk failures committable: tests/corpus/*.json are FuzzCases serialized
/// in the flat `renamelib.fuzz_case.v1` format, replayed verbatim by the
/// corpus_replay ctest and by `fuzzctl replay`.
///
/// The format is deliberately flat (one JSON object, string/integer values
/// only) so the parser here stays a few dozen lines and diffs of committed
/// repros read naturally in review.
#pragma once

#include <cstdint>
#include <string>

#include "api/registry.h"
#include "api/workload.h"

namespace renamelib::fuzz {

/// Which workload the case drives through the harness.
enum class Work {
  kStandard,  ///< the facet's standard workload (next / hold-all / inc+read)
  kChurn,     ///< acquire+release per op (reusable renaming entries only)
  kExplore,   ///< exhaustive schedule enumeration via sim/explore
};

/// One replayable generated execution.
struct FuzzCase {
  api::Facet facet = api::Facet::kCounter;
  std::string spec;  ///< canonical spec text (api/spec.h)
  Work work = Work::kStandard;
  int nproc = 4;
  int ops_per_proc = 2;
  api::Sched sched = api::Sched::kRandom;
  std::uint64_t seed = 1;
  std::size_t max_crashes = 0;        ///< crash plan; 0 disables
  std::uint64_t crash_step_max = 2;   ///< crash thresholds in [1, this]
  int read_period = 3;  ///< readable facet: every Nth op reads
  std::string note;     ///< provenance (what this repro regressed), free text

  /// The Scenario this case runs under (always the simulated backend:
  /// replays must be deterministic).
  api::Scenario scenario() const;
};

/// Serializes `c` in the flat renamelib.fuzz_case.v1 JSON format.
std::string serialize_case(const FuzzCase& c);

/// Parses a renamelib.fuzz_case.v1 document; throws std::invalid_argument
/// naming the problem (bad format tag, unknown key, malformed value).
FuzzCase parse_case(const std::string& text);

/// Reads and parses one corpus file; throws std::runtime_error when the file
/// is unreadable, std::invalid_argument when it does not parse.
FuzzCase load_case_file(const std::string& path);

/// Serializes `c` into `path` (overwrites); throws std::runtime_error on
/// I/O failure.
void write_case_file(const FuzzCase& c, const std::string& path);

/// Stable content hash of a case (FNV-1a of its serialization) — the
/// filename suffix corpus writers use, reproducible across runs.
std::uint64_t case_hash(const FuzzCase& c);

}  // namespace renamelib::fuzz
