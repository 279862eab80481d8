/// \file
/// \brief The facet conformance oracles, as pure predicates.
///
/// These are the invariants every registry entry must keep in every
/// execution: dense value prefixes, uniqueness under crash bounds, escrow
/// lease bounds, renaming uniqueness/tightness, readable-counter read
/// monotonicity and quiescent exactness, holder accounting, completed-op
/// accounting and the unified metrics contract. fuzz::run_case evaluates
/// them on one run of any backend; the fuzzer, the corpus replay and the
/// conformance sweeps (tests/conformance_sweep.h) all judge through it, and
/// the oracle self-tests feed them hand-seeded *violating* inputs. Every
/// check is a pure function of collected values: no gtest, no workload
/// types beyond OpSample, Metrics and Backend, so a failed OracleResult is
/// attributable to exactly one predicate and one input — which is what
/// makes shrinking meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/workload.h"

namespace renamelib::fuzz {

/// Outcome of one oracle evaluation. `oracle` names the predicate that
/// produced it; `detail` explains a failure (empty when ok).
struct OracleResult {
  bool ok = true;
  std::string oracle;
  std::string detail;

  static OracleResult pass(std::string oracle) {
    return OracleResult{true, std::move(oracle), ""};
  }
  static OracleResult fail(std::string oracle, std::string detail) {
    return OracleResult{false, std::move(oracle), std::move(detail)};
  }
};

/// Quiescent counter density: `values` is a permutation of 0..N-1 (every
/// non-escrow counter facet once all processes finished). That N is the
/// planned op count is check_op_count's job.
OracleResult check_dense_prefix(const std::vector<std::uint64_t>& values);

/// Crash-mode counter safety: values unique and < `bound` (the started ops —
/// crashes may strand values but never duplicate them or overshoot the
/// started-operation bound).
OracleResult check_unique_bounded(const std::vector<std::uint64_t>& values,
                                  std::uint64_t bound);

/// Escrow lease bound: values unique and < attempted + nproc * quota (each
/// pid's partially drained lease withholds at most the tail of one
/// quota-sized range). A value at or past the bound is an over-issue.
OracleResult check_escrow_bound(const std::vector<std::uint64_t>& values,
                                std::uint64_t attempted, int nproc,
                                std::uint64_t quota);

/// Renaming safety: names unique (>= 1 each) and within [1, bound]
/// (delegates to renaming/validate.h, the Sec. 2 invariants).
OracleResult check_renaming_names(const std::vector<std::uint64_t>& names,
                                  std::uint64_t bound);

/// Readable-counter read contract over a run's op samples: every "read" op
/// is <= `attempted_incs`, and each pid's own reads never go backwards.
OracleResult check_readable_reads(const std::vector<api::OpSample>& ops,
                                  std::uint64_t attempted_incs);

/// Readable-counter quiescent exactness: a post-run read sees every
/// completed increment and nothing beyond the started ones; without crashes
/// it is exact.
OracleResult check_quiescent_read(std::uint64_t final_read,
                                  std::uint64_t completed_incs,
                                  std::uint64_t attempted_incs, bool crashed);

/// Renaming holder accounting: `holders` within [lo, hi] (hold-all without
/// crashes: exactly the acquire count; churn: 0, or at most the crashed
/// processes' leaked names).
OracleResult check_holders(std::uint64_t holders, std::uint64_t lo,
                           std::uint64_t hi);

/// Completed-op accounting: a crash-free run completes exactly the
/// `planned` ops. With crashes every finished process completed all its
/// `ops_per_proc`, and no run completes more than planned (a proc victim
/// may die after its last op).
OracleResult check_op_count(std::uint64_t completed, std::uint64_t planned,
                            std::size_t finished_procs, int ops_per_proc,
                            bool crashed);

/// Unified metrics sanity of one workload run on `backend` with `completed`
/// op samples: metrics.ops equals them, except that after a kill on the proc
/// backend (`crashed`) it may fall short, since that fold counts survivors
/// only; steps are positive and bound the shared steps and the per-op
/// maximum; and a non-escrow entry pays at least one step per op (a locally
/// served lease op costs none). The per-process maximum is bounded by steps
/// too, except after a simulated crash: there it includes the victim's
/// unfinished op, which no completed op's steps count.
OracleResult check_metrics(const api::Metrics& m, std::uint64_t completed,
                           api::Backend backend, bool crashed, bool escrow);

}  // namespace renamelib::fuzz
