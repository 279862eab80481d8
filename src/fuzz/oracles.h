/// \file
/// \brief The facet conformance oracles, extracted as pure predicates.
///
/// These are the invariants tests/api_conformance_test.cpp asserts — dense
/// value prefixes, uniqueness under crash bounds, escrow lease bounds,
/// renaming uniqueness/tightness, readable-counter read monotonicity and
/// quiescent exactness — lifted out of gtest so the fuzzer (src/fuzz) can
/// evaluate them on generated executions and the oracle self-tests can feed
/// them hand-seeded *violating* inputs. Every check is a pure function of
/// collected values: no gtest, no workload types beyond OpSample, so a
/// failed OracleResult is attributable to exactly one predicate and one
/// input — which is what makes shrinking meaningful.
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
/// non-escrow counter facet once all processes finished).
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

}  // namespace renamelib::fuzz
