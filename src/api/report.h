/// \file
/// \brief Machine-readable bench reports: the JSON contract `renamectl run`
/// and bench_lease emit behind `--json=FILE`.
///
/// The paper's performance claims only become a recorded trajectory if every
/// bench leaves a machine-readable artifact. A BenchReport is one binary's
/// worth of runs: each run names the experiment, the registry spec it
/// measured, the backend and thread count, throughput, and the full
/// tail-faithful latency recording (stats::LatencySnapshot — exact moments,
/// percentile table, sparse log-bucket histogram). This file only writes
/// reports; tools/bench_compare.py is their one reader: it validates the
/// schema, diffs two report files, and lets CI track regressions across
/// commits.
///
/// Schema (kSchema = "renamelib.bench_report.v1"):
/// \verbatim
/// {
///   "schema": "renamelib.bench_report.v1",
///   "bench": "renamectl",
///   "git_describe": "1b67c8d",
///   "runs": [
///     {
///       "name": "run", "spec": "striped:stripes=16",
///       "backend": "hardware", "threads": 8, "ops": 2048,
///       "ops_per_sec": 1.2e6, "unit": "ns",
///       "latency": {
///         "count": 2048, "sum": ..., "sum_sq": ..., "min": ..., "max": ...,
///         "mean": ..., "p50": ..., "p90": ..., "p99": ..., "p999": ...,
///         "buckets": [[lower, upper, count], ...]
///       },
///       "events": { "cas_fail": 17, "lease_seize": 5 }
///     }
///   ]
/// }
/// \endverbatim
/// `unit` says what the latency values measure: "ns" (hardware wall clock)
/// or "steps" (paper cost model, simulated backend). `mean`/`p*` are derived
/// from `count`..`buckets`. `events` is the run's obs::EventBus delta, keyed
/// by obs::site_name and carrying only nonzero counts; it is emitted only
/// when nonempty, so runs recorded with the bus off carry no `events` key at
/// all.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_bus.h"
#include "stats/latency_snapshot.h"

namespace renamelib::api {

/// One measured configuration inside a bench report.
struct ReportRun {
  std::string name;     ///< experiment/table label within the bench
  /// Registry spec measured ("" for non-registry runs). Emission
  /// canonicalizes through api::Spec (sorted keys, normalized brackets), so
  /// written reports carry one stable identifier per configuration and
  /// tools/bench_compare.py matches runs by it, not by `name`.
  std::string spec;
  std::string backend;  ///< "hardware", "simulated", or "analytic"
  int threads = 0;      ///< process/thread count of the scenario
  std::uint64_t ops = 0;       ///< completed operations
  double ops_per_sec = 0;      ///< wall-clock throughput (0 when unmeasured)
  std::string unit = "ns";     ///< latency unit: "ns" or "steps"
  stats::LatencySnapshot latency;  ///< tail-faithful latency recording
  /// The run's per-site event counts (obs::EventBus delta), as (site_name,
  /// count) pairs sorted by name with zero-count sites omitted — the sparse,
  /// name-keyed form the JSON carries. Empty when the bus was off. Stored as
  /// strings because the site names, not obs::Site ids, are what the report
  /// carries and bench_compare.py keys event rates on.
  std::vector<std::pair<std::string, std::uint64_t>> events;
};

struct Scenario;
struct Run;

/// One report run from a Workload result. Hardware and proc runs carry
/// wall-clock latency ("ns", Run::latency; on proc the parent's fold of the
/// survivors' per-process recordings); simulated runs carry the paper-model
/// per-op step distribution ("steps").
ReportRun report_run(std::string name, std::string spec, const Scenario& s,
                     const Run& run);

/// Converts a run's event-bus delta (api::Run::events) into ReportRun::events
/// form: nonzero sites only, named via obs::site_name, sorted by name.
std::vector<std::pair<std::string, std::uint64_t>> report_events(
    const obs::EventSnapshot& events);

/// A bench binary's machine-readable result file (see the schema above).
struct BenchReport {
  /// The schema identifier every report leads with.
  static constexpr const char* kSchema = "renamelib.bench_report.v1";

  /// `git describe` of the build (baked in at configure time; "unknown"
  /// when built outside a git checkout).
  static std::string build_git_describe();

  std::string bench;         ///< bench binary name
  std::string git_describe = build_git_describe();
  std::vector<ReportRun> runs;

  /// Serializes the report (stable field order, round-trippable doubles).
  std::string to_json() const;

  /// Writes to_json() to `path` (throws std::runtime_error on I/O failure).
  void write_file(const std::string& path) const;
};

}  // namespace renamelib::api
