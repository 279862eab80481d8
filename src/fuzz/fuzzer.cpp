#include "fuzz/fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/registry.h"
#include "api/workload.h"
#include "core/ctx.h"
#include "fuzz/coverage.h"
#include "obs/flight_recorder.h"
#include "proc/proc_backend.h"
#include "proc/shm_arena.h"
#include "sim/explore.h"
#include "sim/linearizability.h"

namespace renamelib::fuzz {
namespace {

constexpr std::uint64_t kNoLimit = ~0ULL;

/// Exhaustive exploration must stay cheap per case: the sanitizer caps the
/// geometry at 3 procs x 2 ops, and these caps bound the enumeration even if
/// a hand-edited corpus case sneaks something larger in.
constexpr std::size_t kExploreMaxDepth = 48;
constexpr std::uint64_t kExploreMaxExecutions = 2000;

/// The broker aborts (by contract) on pid >= procs; a corpus case that was
/// hand-edited into that geometry must fail with a catchable error instead.
void guard_lease_procs(const api::Spec& spec, int nproc) {
  if (spec.name() == "lease" &&
      spec.get_u64("procs", 128) < static_cast<std::uint64_t>(nproc)) {
    throw std::invalid_argument(
        "fuzz case: lease procs= is below the scenario's nproc");
  }
  for (const auto& [key, value] : spec.options()) {
    if (value.is_spec()) guard_lease_procs(value.spec(), nproc);
  }
}

/// Largest op count a counter spec can absorb without *any* layer
/// saturating. Saturation legitimately duplicates values (the paper's
/// saturating sequential spec), so the harness must stay clear of it for the
/// uniqueness oracles to be meaningful. A lease is walked structurally: it
/// mints at most ceil(A/quota) + nproc inner tickets; everything else is
/// judged by its own constructed capacity().
std::uint64_t safe_counter_ops(const api::Registry& reg, const api::Spec& spec,
                               int nproc, std::size_t crashes) {
  const auto p = static_cast<std::uint64_t>(nproc);
  if (spec.name() == "lease") {
    const std::uint64_t quota = spec.get_u64("quota", 64);
    const api::Spec inner = spec.get_spec("inner", "atomic_fai");
    const std::uint64_t tickets = safe_counter_ops(reg, inner, nproc, crashes);
    if (tickets == kNoLimit) return kNoLimit;
    return tickets < p + 2 ? 0 : (tickets - p - 1) * quota;
  }
  const std::uint64_t cap = reg.make_counter(spec)->capacity();
  if (cap == api::ICounter::kUnbounded) return kNoLimit;
  const std::uint64_t margin = 1 + crashes;
  return cap <= margin ? 0 : cap - margin;
}

/// Strict upper bound on the values an escrow-leased dispenser may hand out
/// for `planned` started ops: every value lies in a minted quota-sized
/// range, and at most ceil(planned/quota) + nproc ranges are ever minted
/// (pool reuse and seizes only recycle existing ranges). Recursing through
/// nested leases keeps the bound sound for lease-over-lease specs, which the
/// flat `attempted + nproc * quota` conformance bound is not.
std::uint64_t escrow_value_bound(const api::Spec& spec, std::uint64_t planned,
                                 int nproc) {
  if (spec.name() == "lease") {
    const std::uint64_t quota = spec.get_u64("quota", 64);
    const api::Spec inner = spec.get_spec("inner", "atomic_fai");
    const std::uint64_t tickets =
        planned / quota + 1 + static_cast<std::uint64_t>(nproc);
    return escrow_value_bound(inner, tickets, nproc) * quota;
  }
  return planned;
}

/// Total acquires a renaming spec can absorb with `nproc` clients before
/// some layer over-subscribes a one-shot request budget — which is an abort
/// (caller contract on RenamingInfo::max_requests), not an oracle failure,
/// so the harness must stay strictly inside it. Only the lease wrapper needs
/// structural treatment: every refill pins one inner name forever and each
/// of the p clients can hold a partially-used lease, so serving A names
/// costs at most ceil(A/quota) + p inner acquires. max_requests alone is
/// nproc-blind and cannot express this (e.g. lease over bit_batching:n=2
/// advertises 128 requests but cannot seat a third client).
std::uint64_t safe_renaming_requests(const api::Registry& reg,
                                     const api::Spec& spec, int nproc) {
  if (spec.name() != "lease") {
    const int budget = reg.find_renaming(spec.name())->max_requests(spec);
    return budget <= 0 ? 0 : static_cast<std::uint64_t>(budget);
  }
  const auto p = static_cast<std::uint64_t>(nproc);
  const std::uint64_t quota = spec.get_u64("quota", 64);
  const api::Spec inner = spec.get_spec("inner", "longlived");
  const std::uint64_t tickets = safe_renaming_requests(reg, inner, nproc);
  return tickets < p + 2 ? 0 : (tickets - p - 1) * quota;
}

/// The counter facet's value oracle, shared by the workload and explore
/// paths: escrow entries get the quota bound, everything else density once
/// quiescent, or uniqueness within the started-op bound under crashes.
OracleResult judge_counter_values(const api::Spec& spec,
                                  api::Consistency consistency,
                                  const std::vector<std::uint64_t>& values,
                                  std::uint64_t planned, int nproc,
                                  std::size_t crashed) {
  if (consistency == api::Consistency::kEscrow) {
    const std::uint64_t quota = spec.get_u64("quota", 64);
    const std::uint64_t bound = escrow_value_bound(spec, planned, nproc);
    // check_escrow_bound reconstructs attempted + nproc * quota; feed it the
    // attempted that makes that expression our (nesting-sound) bound.
    return check_escrow_bound(
        values, bound - static_cast<std::uint64_t>(nproc) * quota, nproc,
        quota);
  }
  if (crashed > 0) return check_unique_bounded(values, planned);
  return check_dense_prefix(values);
}

void add_result(CaseResult& r, OracleResult oracle) {
  if (!oracle.ok) {
    r.ok = false;
    r.failures.push_back(std::move(oracle));
  }
}

std::string schedule_text(const std::vector<int>& schedule) {
  std::string out;
  for (const int pid : schedule) {
    if (!out.empty()) out += ',';
    out += std::to_string(pid);
  }
  return out;
}

/// Work::kExplore: enumerates (from `seed`) the schedules of `nproc`
/// processes, each running `ops` operations through a per-op function that
/// `make_op` binds to a fresh object per execution, and judges every
/// execution's collected values with `judge`. The first failing verdict is
/// recorded in `r` with its schedule; `values_out` keeps the last
/// execution's values.
void explore_case(
    std::uint64_t seed, int nproc, int ops,
    const std::function<std::function<std::uint64_t(Ctx&)>()>& make_op,
    const std::function<OracleResult(const std::vector<std::uint64_t>&)>&
        judge,
    CaseResult& r, std::vector<std::uint64_t>& values_out) {
  OracleResult verdict = OracleResult::pass("explore");
  const auto make_body = [&] {
    values_out.clear();
    return std::function<void(Ctx&)>(
        [&values_out, op = make_op(), ops](Ctx& ctx) {
          for (int i = 0; i < ops; ++i) values_out.push_back(op(ctx));
        });
  };
  const auto invariant = [&](const sim::SimResult&) {
    const OracleResult v = judge(values_out);
    if (!v.ok) verdict = v;
    return v.ok;
  };
  const sim::ExploreResult res = sim::explore_schedules(
      nproc, make_body, invariant,
      {seed, kExploreMaxDepth, kExploreMaxExecutions});
  if (res.invariant_violated) {
    verdict.detail += " [schedule " + schedule_text(res.counterexample) + "]";
    add_result(r, verdict);
  }
}

/// The backend a case runs on and, on the proc backend, the shared-memory
/// arena its object is built in. run_case owns it, so the arena outlives the
/// object and the parent can still read the object after the run (the
/// holder and quiescent-read oracles).
struct Substrate {
  api::Backend backend = api::Backend::kSimulated;
  std::optional<proc::ShmArena> arena;

  /// `make()`'s object, placed in the arena on the proc backend.
  template <typename MakeFn>
  auto make(const MakeFn& make) {
    if (!arena) return make();
    proc::ArenaScope scope(*arena);
    return make();
  }
};

/// Scenario for the clamped geometry (the case's own scenario on `sub`'s
/// backend, with the harness-derived proc/op counts substituted in).
api::Scenario clamped_scenario(const FuzzCase& c, const Substrate& sub,
                               int nproc, int ops, std::size_t crashes) {
  api::Scenario s = c.scenario();
  s.backend = sub.backend;
  s.nproc = nproc;
  s.ops_per_proc = ops;
  s.crashes.max_crashes = crashes;
  return s;
}

/// The oracles every workload run answers to, whatever its facet:
/// completed-op accounting and the metrics contract.
void judge_run(const api::Run& run, const api::Scenario& s, bool escrow,
               CaseResult& r) {
  r.crashed_procs = run.crashed_procs;
  const bool crashed = run.crashed_procs > 0;
  add_result(r, check_op_count(run.ops.size(), r.attempted,
                               run.finished_procs, s.ops_per_proc, crashed));
  add_result(r, check_metrics(run.metrics, run.ops.size(), s.backend,
                              crashed, escrow));
}

/// Wing–Gong needs a recorded history: crash-free, small, and not on the
/// proc backend, which records none.
bool wing_gong_applies(api::Consistency consistency, const api::Scenario& s) {
  return consistency == api::Consistency::kLinearizable &&
         !s.crashes.enabled() && s.backend != api::Backend::kProc &&
         static_cast<std::uint64_t>(s.nproc) * s.ops_per_proc <= 64;
}

CaseResult run_counter_case(const api::Registry& reg, const api::Spec& spec,
                            const FuzzCase& c, Substrate& sub,
                            std::vector<std::uint64_t>& values_out) {
  const api::CounterInfo* info = reg.find_counter(spec.name());
  CaseResult r;

  // Walk nproc down until the spec can absorb at least one op per process
  // without saturating anywhere.
  int nproc = c.nproc;
  std::size_t crashes = c.max_crashes;
  std::uint64_t safe = 0;
  for (; nproc >= 1; --nproc) {
    crashes = std::min(crashes,
                       static_cast<std::size_t>(nproc > 1 ? nproc - 1 : 0));
    safe = safe_counter_ops(reg, spec, nproc, crashes);
    if (safe >= static_cast<std::uint64_t>(nproc)) break;
  }
  if (nproc < 1) return r;  // ran=false: nothing this spec can execute
  const int ops = static_cast<int>(std::min<std::uint64_t>(
      c.ops_per_proc, safe / static_cast<std::uint64_t>(nproc)));
  const std::uint64_t planned =
      static_cast<std::uint64_t>(nproc) * static_cast<std::uint64_t>(ops);
  r.ran = true;
  r.attempted = planned;

  if (c.work == Work::kExplore) {
    explore_case(
        c.seed, nproc, ops,
        [&] {
          std::shared_ptr<api::ICounter> counter = reg.make_counter(spec);
          return [counter](Ctx& ctx) { return counter->next(ctx); };
        },
        [&](const std::vector<std::uint64_t>& values) {
          return judge_counter_values(spec, info->consistency, values,
                                      planned, nproc, /*crashed=*/0);
        },
        r, values_out);
    return r;
  }

  const auto counter = sub.make([&] { return reg.make_counter(spec); });
  api::Scenario s = clamped_scenario(c, sub, nproc, ops, crashes);
  s.record_history = wing_gong_applies(info->consistency, s);
  const api::Run run = api::Workload(s).run(*counter);
  values_out = run.values();

  judge_run(run, s, info->consistency == api::Consistency::kEscrow, r);
  add_result(r, judge_counter_values(spec, info->consistency, values_out,
                                     planned, nproc, run.crashed_procs));
  if (s.record_history) {
    const std::uint64_t m = counter->capacity() == api::ICounter::kUnbounded
                                ? (1ULL << 40)
                                : counter->capacity();
    sim::BoundedFaiSpec fai(m);
    if (!sim::is_linearizable(run.history, fai)) {
      add_result(r, OracleResult::fail(
                        "wing_gong",
                        "history is not linearizable as a bounded FAI"));
    }
  }
  return r;
}

CaseResult run_renaming_case(const api::Registry& reg, const api::Spec& spec,
                             const FuzzCase& c, Substrate& sub,
                             std::vector<std::uint64_t>& values_out) {
  const api::RenamingInfo* info = reg.find_renaming(spec.name());
  const int max_requests = info->max_requests(spec);
  const bool escrow = info->family == api::Family::kEscrow;
  CaseResult r;
  if (max_requests < 1) return r;

  // Lease wrappers consume whole inner tickets per client; shed clients
  // until the structural acquire budget can seat everyone, or skip the case
  // if even one client would over-subscribe the inner.
  int nproc_cap = c.nproc;
  std::uint64_t safe = kNoLimit;
  if (spec.name() == "lease") {
    while (nproc_cap > 0) {
      safe = safe_renaming_requests(reg, spec, nproc_cap);
      if (safe >= static_cast<std::uint64_t>(nproc_cap)) break;
      --nproc_cap;
    }
    if (nproc_cap == 0) return r;
  }

  if (c.work == Work::kChurn && info->reusable) {
    // Acquire-release cycles: concurrent holders never exceed nproc, so
    // nproc (not the op count) is what max_requests and name_bound key on.
    // Mints are still bounded by total acquires, so the lease acquire
    // budget caps the op count even though releases recycle outer names.
    const int nproc = std::min(nproc_cap, max_requests);
    const int ops =
        safe == kNoLimit
            ? c.ops_per_proc
            : std::max(1, static_cast<int>(std::min<std::uint64_t>(
                              c.ops_per_proc,
                              safe / static_cast<std::uint64_t>(nproc))));
    const std::size_t crashes = std::min(
        c.max_crashes, static_cast<std::size_t>(nproc > 1 ? nproc - 1 : 0));
    const std::uint64_t bound = info->name_bound(nproc, spec);
    const auto obj = sub.make([&] { return reg.make_renaming(spec); });
    r.ran = true;
    r.attempted = static_cast<std::uint64_t>(nproc) * ops;
    const api::Scenario s = clamped_scenario(c, sub, nproc, ops, crashes);
    const api::Run run = api::Workload(s).run_ops([&obj](Ctx& ctx) {
      const std::uint64_t name = obj->acquire(ctx);
      obj->release(ctx, name);
      return name;
    });
    values_out = run.values();
    judge_run(run, s, escrow, r);
    for (const std::uint64_t name : values_out) {
      if (name < 1 || name > bound) {
        add_result(r, OracleResult::fail(
                          "churn_name_range",
                          "name " + std::to_string(name) + " outside [1, " +
                              std::to_string(bound) + "] for " +
                              std::to_string(nproc) + " concurrent holders"));
        break;
      }
    }
    // A process killed between acquire and release leaks at most its one
    // in-flight name; with no crashes quiescence means zero holders.
    add_result(r, check_holders(obj->holders(), 0, run.crashed_procs));
    return r;
  }

  // Hold-all (and explore): every acquire counts against the request budget.
  int nproc = nproc_cap;
  int ops = c.ops_per_proc;
  if (nproc > max_requests) {
    nproc = max_requests;
    ops = 1;
  } else {
    ops = std::max(1, std::min(ops, max_requests / nproc));
  }
  if (safe != kNoLimit) {
    ops = std::max(1, static_cast<int>(std::min<std::uint64_t>(
                          ops, safe / static_cast<std::uint64_t>(nproc))));
  }
  const std::uint64_t planned =
      static_cast<std::uint64_t>(nproc) * static_cast<std::uint64_t>(ops);
  const std::uint64_t bound =
      info->name_bound(static_cast<int>(planned), spec);
  r.ran = true;
  r.attempted = planned;

  if (c.work == Work::kExplore) {
    explore_case(
        c.seed, nproc, ops,
        [&] {
          std::shared_ptr<api::IRenaming> obj = reg.make_renaming(spec);
          return [obj](Ctx& ctx) { return obj->acquire(ctx); };
        },
        [bound](const std::vector<std::uint64_t>& names) {
          return check_renaming_names(names, bound);
        },
        r, values_out);
    return r;
  }

  const std::size_t crashes = std::min(
      c.max_crashes, static_cast<std::size_t>(nproc > 1 ? nproc - 1 : 0));
  const auto obj = sub.make([&] { return reg.make_renaming(spec); });
  const api::Scenario s = clamped_scenario(c, sub, nproc, ops, crashes);
  const api::Run run = api::Workload(s).run(*obj);
  values_out = run.values();

  judge_run(run, s, escrow, r);
  add_result(r, check_renaming_names(values_out, bound));
  // Completed acquires are held for good; crashed processes add at most
  // their in-flight acquire each, so holders lands in [completed, planned].
  add_result(r,
             check_holders(obj->holders(), run.ops.size(), planned));
  return r;
}

CaseResult run_readable_case(const api::Registry& reg, const api::Spec& spec,
                             const FuzzCase& c, Substrate& sub,
                             std::vector<std::uint64_t>& values_out) {
  const api::ReadableInfo* info = reg.find_readable(spec.name());
  const auto obj = sub.make([&] { return reg.make_readable(spec); });
  CaseResult r;

  const int period = std::max(1, c.read_period);
  const auto incs_of = [period](int nproc, int ops) {
    return static_cast<std::uint64_t>(nproc) *
           static_cast<std::uint64_t>(ops - ops / period);
  };
  int nproc = std::min(c.nproc, obj->max_procs());
  int ops = c.ops_per_proc;
  if (nproc < 1) return r;
  if (obj->capacity() != api::IReadableCounter::kUnbounded) {
    // Reads stay < capacity(); keep the increment total clear of it.
    while (ops > 1 && incs_of(nproc, ops) >= obj->capacity()) --ops;
    while (nproc > 1 && incs_of(nproc, ops) >= obj->capacity()) --nproc;
    if (incs_of(nproc, ops) >= obj->capacity()) return r;
  }
  const std::size_t crashes = std::min(
      c.max_crashes, static_cast<std::size_t>(nproc > 1 ? nproc - 1 : 0));
  const std::uint64_t planned =
      static_cast<std::uint64_t>(nproc) * static_cast<std::uint64_t>(ops);
  const std::uint64_t planned_incs = incs_of(nproc, ops);
  r.ran = true;
  r.attempted = planned;

  api::Scenario s = clamped_scenario(c, sub, nproc, ops, crashes);
  s.record_history = wing_gong_applies(info->consistency, s);
  const api::Run run = api::Workload(s).run(*obj);
  values_out = run.values_of("read");

  judge_run(run, s, info->consistency == api::Consistency::kEscrow, r);
  // Each victim has at most one increment in flight, so the started
  // increments are the completed ones plus at most one per crash.
  const std::uint64_t completed_incs = run.values_of("inc").size();
  const std::uint64_t started_incs =
      std::min(planned_incs, completed_incs + run.crashed_procs);
  add_result(r, check_readable_reads(run.ops, started_incs));
  Ctx quiet(0, Rng::derive(c.seed, 0x51E5CE));
  add_result(r, check_quiescent_read(obj->read(quiet), completed_incs,
                                     started_incs, run.crashed_procs > 0));
  if (s.record_history) {
    sim::CounterSpec counter_spec;
    if (!sim::is_linearizable(run.history, counter_spec)) {
      add_result(r, OracleResult::fail(
                        "wing_gong",
                        "inc/read history is not linearizable as a counter"));
    }
  }
  return r;
}

std::string hex8(std::uint64_t h) {
  std::ostringstream out;
  out << std::hex << std::setw(8) << std::setfill('0') << (h & 0xFFFFFFFFULL);
  return out.str();
}

std::string entry_key(const FuzzCase& c) {
  return std::string(api::facet_name(c.facet)) + "/" +
         api::Spec::parse(c.spec).name();
}

}  // namespace

CaseResult run_case(const FuzzCase& c, const ExtraOracle& extra,
                    api::Backend backend) {
  const api::Registry& reg = api::Registry::global();
  const api::Spec spec = api::Spec::parse(c.spec);
  reg.validate(c.facet, spec);
  if (c.nproc < 1 || c.ops_per_proc < 1 || c.read_period < 1) {
    throw std::invalid_argument("fuzz case: non-positive scenario geometry");
  }
  if (backend == api::Backend::kHardware && c.max_crashes > 0) {
    throw std::invalid_argument(
        "fuzz case: crash injection needs the simulated or proc backend");
  }
  if (backend != api::Backend::kSimulated && c.work == Work::kExplore) {
    throw std::invalid_argument(
        "fuzz case: schedule exploration runs only on the simulated backend");
  }
  guard_lease_procs(spec, c.nproc);

  // Clamping only shrinks the case's geometry, so an arena sized for the
  // case holds the proc layout of any clamped run.
  Substrate sub;
  sub.backend = backend;
  if (backend == api::Backend::kProc) {
    sub.arena.emplace(proc::default_arena_bytes(c.scenario()), c.seed);
  }

  Coverage::instance().reset();
  Coverage::set_enabled(true);
  // The flight recorder rides along with every fuzzed execution, so an
  // oracle failure (here or in fuzzctl replay) can dump the last events
  // leading up to it without re-running anything.
  obs::FlightRecorder::instance().reset();
  obs::FlightRecorder::set_enabled(true);
  CaseResult r;
  std::vector<std::uint64_t> values;
  try {
    switch (c.facet) {
      case api::Facet::kCounter:
        r = run_counter_case(reg, spec, c, sub, values);
        break;
      case api::Facet::kRenaming:
        r = run_renaming_case(reg, spec, c, sub, values);
        break;
      case api::Facet::kReadable:
        r = run_readable_case(reg, spec, c, sub, values);
        break;
    }
  } catch (...) {
    Coverage::set_enabled(false);
    obs::FlightRecorder::set_enabled(false);
    throw;
  }
  Coverage::set_enabled(false);
  obs::FlightRecorder::set_enabled(false);
  r.coverage_fingerprint = Coverage::instance().fingerprint();

  if (extra && r.ran) {
    OracleResult er = extra(c, values);
    if (!er.ok) {
      r.ok = false;
      r.failures.push_back(std::move(er));
    }
  }
  return r;
}

Fuzzer::Fuzzer(FuzzOptions options)
    : options_(std::move(options)),
      generator_(api::Registry::global()),
      rng_(options_.seed),
      seen_(Coverage::kMapSize, 0) {}

CaseResult Fuzzer::run_tracked(const FuzzCase& c, std::size_t& new_features) {
  new_features = 0;
  if (std::getenv("RENAMELIB_FUZZ_TRACE") != nullptr) {
    std::fprintf(stderr, "fuzz-trace: %s\n", serialize_case(c).c_str());
    std::fflush(stderr);
  }
  CaseResult r;
  try {
    r = run_case(c, options_.extra_oracle);
  } catch (const std::exception& e) {
    r.ran = true;
    r.ok = false;
    r.failures.push_back(OracleResult::fail("harness", e.what()));
    return r;
  }
  if (!r.ran) return r;
  for (const auto& [cell, bucket] : Coverage::instance().observe()) {
    if (bucket > seen_[cell]) {
      seen_[cell] = bucket;
      ++new_features;
    }
  }
  fingerprint_ = Coverage::mix(fingerprint_ ^ r.coverage_fingerprint);
  return r;
}

FuzzCase Fuzzer::shrink(const FuzzCase& c, int budget) const {
  const auto fails = [&](const FuzzCase& candidate) {
    try {
      const CaseResult r = run_case(candidate, options_.extra_oracle);
      return r.ran && !r.ok;
    } catch (const std::exception&) {
      return true;  // a case that errors out still reproduces a defect
    }
  };
  if (budget <= 0) return c;
  --budget;
  if (!fails(c)) return c;

  // Candidate reductions, most aggressive first. Each is re-sanitized (the
  // sanitizer is idempotent), so a candidate is always a runnable case.
  const auto candidates = [this](const FuzzCase& cur) {
    std::vector<FuzzCase> out;
    const auto push = [&](FuzzCase cand) {
      generator_.sanitize(cand);
      out.push_back(std::move(cand));
    };
    FuzzCase t = cur;
    if (cur.nproc > 1) {
      t = cur; t.nproc = 1; push(t);
      t = cur; t.nproc = cur.nproc / 2; push(t);
      t = cur; t.nproc = cur.nproc - 1; push(t);
    }
    if (cur.ops_per_proc > 1) {
      t = cur; t.ops_per_proc = 1; push(t);
      t = cur; t.ops_per_proc = cur.ops_per_proc / 2; push(t);
      t = cur; t.ops_per_proc = cur.ops_per_proc - 1; push(t);
    }
    if (cur.max_crashes > 0) {
      t = cur; t.max_crashes = 0; push(t);
      t = cur; t.max_crashes = cur.max_crashes / 2; push(t);
      t = cur; t.crash_step_max = 1; push(t);
    }
    if (cur.facet == api::Facet::kReadable && cur.read_period > 1) {
      t = cur; t.read_period = cur.read_period - 1; push(t);
    }
    // Spec reductions: drop each option; walk integers down.
    try {
      const api::Spec spec = api::Spec::parse(cur.spec);
      for (const auto& [key, value] : spec.options()) {
        api::Spec dropped(spec.name());
        for (const auto& [k, v] : spec.options()) {
          if (k != key) dropped.set(k, v);
        }
        t = cur; t.spec = dropped.print(); push(t);
        if (!value.is_spec()) {
          std::uint64_t v = 0;
          try {
            v = std::stoull(value.scalar());
          } catch (const std::exception&) {
            continue;  // enum/bool scalars: dropping was the only reduction
          }
          for (const std::uint64_t smaller : {v / 2, std::uint64_t{1}}) {
            if (smaller == 0 || smaller >= v) continue;
            api::Spec walked(spec.name());
            for (const auto& [k, w] : spec.options()) {
              walked.set(k, k == key
                                ? api::SpecValue(std::to_string(smaller))
                                : w);
            }
            t = cur; t.spec = walked.print(); push(t);
          }
        }
      }
    } catch (const std::exception&) {
    }
    return out;
  };

  FuzzCase current = c;
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    const std::string current_text = serialize_case(current);
    for (const FuzzCase& cand : candidates(current)) {
      if (serialize_case(cand) == current_text) continue;
      if (budget-- <= 0) break;
      if (fails(cand)) {
        current = cand;
        improved = true;
        break;
      }
    }
  }
  return current;
}

void Fuzzer::record_failure(const FuzzCase& c, const CaseResult& r,
                            FuzzSummary& summary) {
  ++summary.failures;
  FuzzCase shrunk = shrink(c, options_.shrink_budget);
  std::string note;
  if (!r.failures.empty()) {
    note = r.failures.front().oracle + ": " + r.failures.front().detail;
  }
  // Re-run the minimized case for the *minimized* failure message (shrinking
  // can shift which oracle trips first).
  try {
    const CaseResult rr = run_case(shrunk, options_.extra_oracle);
    if (!rr.ok && !rr.failures.empty()) {
      note = rr.failures.front().oracle + ": " + rr.failures.front().detail;
    }
  } catch (const std::exception& e) {
    note = std::string("harness: ") + e.what();
  }
  if (note.size() > 240) note.resize(240);
  shrunk.note = note;

  std::string filename = std::string(api::facet_name(shrunk.facet)) + "-" +
                         api::Spec::parse(shrunk.spec).name() + "-" +
                         hex8(case_hash(shrunk)) + ".json";
  std::string where = "(not written)";
  if (!options_.out_dir.empty() && summary.failure_files.size() < 16) {
    std::filesystem::create_directories(options_.out_dir);
    const std::string path = options_.out_dir + "/" + filename;
    write_case_file(shrunk, path);
    summary.failure_files.push_back(path);
    where = path;
  }
  summary.failure_notes.push_back(where + ": spec=" + shrunk.spec + " — " +
                                  note);
}

FuzzSummary Fuzzer::run() {
  FuzzSummary summary;
  summary.entries_total = generator_.catalog().size();
  std::set<std::string> covered;
  std::size_t features_total = 0;

  const auto account = [&](const FuzzCase& c, const CaseResult& r,
                           std::size_t new_features) {
    ++summary.iterations;
    if (!r.ran) {
      ++summary.skipped;
      return;
    }
    try {
      covered.insert(entry_key(c));
    } catch (const std::exception&) {
    }
    features_total += new_features;
    if (new_features > 0) {
      ++summary.interesting;
      queue_.push_back(c);
    }
    if (!r.ok) record_failure(c, r, summary);
  };

  // Phase A: every registered entry runs at least once. A generated case can
  // legitimately be un-runnable (a capacity-2 spec cannot serve 4 procs);
  // retry with fresh draws, then fall back to the entry's default spec under
  // a minimal scenario, which always runs.
  for (const auto& entry : generator_.catalog()) {
    bool ran = false;
    for (int attempt = 0; attempt < 4 && !ran; ++attempt) {
      const FuzzCase c = generator_.case_for_entry(entry, rng_);
      std::size_t fresh = 0;
      const CaseResult r = run_tracked(c, fresh);
      account(c, r, fresh);
      ran = r.ran;
    }
    if (!ran) {
      FuzzCase fallback;
      fallback.facet = entry.facet;
      fallback.spec = entry.name;
      fallback.nproc = 2;
      fallback.ops_per_proc = 1;
      fallback.sched = api::Sched::kRoundRobin;
      fallback.seed = rng_.next();
      generator_.sanitize(fallback);
      std::size_t fresh = 0;
      const CaseResult r = run_tracked(fallback, fresh);
      account(fallback, r, fresh);
    }
  }

  // Phase B: coverage-guided mutation over the remaining budget.
  while (summary.iterations < options_.iterations) {
    const bool from_queue = !queue_.empty() && rng_.below(10) < 7;
    const FuzzCase c =
        from_queue
            ? generator_.mutate(queue_[rng_.below(queue_.size())], rng_)
            : generator_.random_case(rng_);
    std::size_t fresh = 0;
    const CaseResult r = run_tracked(c, fresh);
    account(c, r, fresh);
  }

  summary.entries_covered = covered.size();
  summary.coverage_features = features_total;
  summary.fingerprint = fingerprint_;
  return summary;
}

}  // namespace renamelib::fuzz
