#include "fuzz/oracles.h"

#include <algorithm>
#include <map>
#include <set>

#include "renaming/validate.h"

namespace renamelib::fuzz {
namespace {

std::string u64s(std::uint64_t v) { return std::to_string(v); }

}  // namespace

OracleResult check_dense_prefix(const std::vector<std::uint64_t>& values) {
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != i) {
      return OracleResult::fail(
          "dense_prefix", "position " + u64s(i) + " holds " + u64s(sorted[i]) +
                              (i > 0 && sorted[i] == sorted[i - 1]
                                   ? " (duplicate)"
                                   : " (gap)"));
    }
  }
  return OracleResult::pass("dense_prefix");
}

OracleResult check_unique_bounded(const std::vector<std::uint64_t>& values,
                                  std::uint64_t bound) {
  std::set<std::uint64_t> seen;
  for (const std::uint64_t v : values) {
    if (!seen.insert(v).second) {
      return OracleResult::fail("unique_bounded", "duplicate value " + u64s(v));
    }
    if (v >= bound) {
      return OracleResult::fail(
          "unique_bounded", "value " + u64s(v) + " >= bound " + u64s(bound));
    }
  }
  return OracleResult::pass("unique_bounded");
}

OracleResult check_escrow_bound(const std::vector<std::uint64_t>& values,
                                std::uint64_t attempted, int nproc,
                                std::uint64_t quota) {
  const std::uint64_t bound =
      attempted + static_cast<std::uint64_t>(nproc) * quota;
  std::set<std::uint64_t> seen;
  for (const std::uint64_t v : values) {
    if (!seen.insert(v).second) {
      return OracleResult::fail("escrow_bound", "duplicate value " + u64s(v));
    }
    if (v >= bound) {
      return OracleResult::fail(
          "escrow_bound", "over-issue: value " + u64s(v) + " >= " +
                              u64s(attempted) + " + " + u64s(nproc) + "*" +
                              u64s(quota));
    }
  }
  return OracleResult::pass("escrow_bound");
}

OracleResult check_renaming_names(const std::vector<std::uint64_t>& names,
                                  std::uint64_t bound) {
  const auto unique = renaming::check_unique(names);
  if (!unique.ok) return OracleResult::fail("renaming_unique", unique.error);
  const auto tight = renaming::check_tight(names, bound);
  if (!tight.ok) return OracleResult::fail("renaming_tight", tight.error);
  return OracleResult::pass("renaming_unique_tight");
}

OracleResult check_readable_reads(const std::vector<api::OpSample>& ops,
                                  std::uint64_t attempted_incs) {
  std::map<int, std::uint64_t> last_read;
  for (const auto& op : ops) {
    if (op.kind != "read") continue;
    if (op.value > attempted_incs) {
      return OracleResult::fail(
          "readable_bound", "pid " + std::to_string(op.pid) + " read " +
                                u64s(op.value) + " > started increments " +
                                u64s(attempted_incs));
    }
    auto [it, fresh] = last_read.try_emplace(op.pid, op.value);
    if (!fresh) {
      if (op.value < it->second) {
        return OracleResult::fail(
            "readable_monotone",
            "pid " + std::to_string(op.pid) + " reads went backwards: " +
                u64s(it->second) + " then " + u64s(op.value));
      }
      it->second = op.value;
    }
  }
  return OracleResult::pass("readable_reads");
}

OracleResult check_quiescent_read(std::uint64_t final_read,
                                  std::uint64_t completed_incs,
                                  std::uint64_t attempted_incs, bool crashed) {
  if (final_read < completed_incs) {
    return OracleResult::fail(
        "quiescent_read", "final read " + u64s(final_read) +
                              " < completed increments " + u64s(completed_incs));
  }
  if (final_read > attempted_incs) {
    return OracleResult::fail(
        "quiescent_read", "final read " + u64s(final_read) +
                              " > started increments " + u64s(attempted_incs));
  }
  if (!crashed && final_read != completed_incs) {
    return OracleResult::fail(
        "quiescent_read", "crash-free final read " + u64s(final_read) +
                              " != completed increments " +
                              u64s(completed_incs));
  }
  return OracleResult::pass("quiescent_read");
}

OracleResult check_holders(std::uint64_t holders, std::uint64_t lo,
                           std::uint64_t hi) {
  if (holders < lo || holders > hi) {
    return OracleResult::fail(
        "holders", "holders() == " + u64s(holders) + ", expected in [" +
                       u64s(lo) + ", " + u64s(hi) + "]");
  }
  return OracleResult::pass("holders");
}

OracleResult check_op_count(std::uint64_t completed, std::uint64_t planned,
                            std::size_t finished_procs, int ops_per_proc,
                            bool crashed) {
  const std::uint64_t floor =
      crashed ? finished_procs * static_cast<std::uint64_t>(ops_per_proc)
              : planned;
  if (completed < floor || completed > planned) {
    return OracleResult::fail(
        "op_count", u64s(completed) + " ops completed, expected " +
                        (crashed ? "[" + u64s(floor) + ", " + u64s(planned) +
                                       "] with crashes"
                                 : u64s(planned)));
  }
  return OracleResult::pass("op_count");
}

OracleResult check_metrics(const api::Metrics& m, std::uint64_t completed,
                           api::Backend backend, bool crashed, bool escrow) {
  const auto fail = [](std::string detail) {
    return OracleResult::fail("metrics", std::move(detail));
  };
  const bool survivors_only = crashed && backend == api::Backend::kProc;
  if (survivors_only ? m.ops > completed : m.ops != completed) {
    return fail("metrics.ops " + u64s(m.ops) +
                (survivors_only ? " > " : " != ") + u64s(completed) +
                " completed ops");
  }
  if (m.steps == 0) return fail("zero steps");
  if (m.shared_steps > m.steps) {
    return fail("shared_steps " + u64s(m.shared_steps) + " > steps " +
                u64s(m.steps));
  }
  if (m.max_op_steps > m.steps) {
    return fail("max_op_steps " + u64s(m.max_op_steps) + " > steps " +
                u64s(m.steps));
  }
  const bool unfinished_ops_in_max =
      crashed && backend == api::Backend::kSimulated;
  if (!unfinished_ops_in_max && m.max_proc_steps > m.steps) {
    return fail("max_proc_steps " + u64s(m.max_proc_steps) + " > steps " +
                u64s(m.steps));
  }
  if (!escrow && m.mean_op_steps() < 1.0) {
    return fail("mean_op_steps " + std::to_string(m.mean_op_steps()) +
                " < 1 for a non-escrow entry");
  }
  return OracleResult::pass("metrics");
}

}  // namespace renamelib::fuzz
