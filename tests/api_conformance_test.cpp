// Facet-driven conformance suite: every registered implementation of every
// facet, every schedule, one set of checks per facet.
//
//   * counter facet — values are a dense prefix {0..N-1}; linearizable ones
//     are additionally machine-checked with the Wing–Gong checker on
//     recorded concurrent histories; quiescent/dense ones must still hand
//     out a permutation of the prefix; escrow-leased ones are checked for
//     uniqueness within the quota-rounded bound instead of density,
//   * renaming facet — uniqueness and namespace tightness
//     (renaming/validate.h) against each entry's declared name_bound, plus
//     concurrent-holder and reuse checks for the long-lived family,
//   * readable facet — per-process read monotonicity, read bounds
//     (completed <= reads <= started increments), quiescent exactness, and
//     Wing–Gong on inc/read histories for linearizable entries,
//   * the registry itself — facet enumeration, spec grammar (including
//     nested bracketed values), error paths and error-message quality,
//   * the sharded family — an extra sweep over stripe counts.
//
// Every sweep runs under three schedules: hardware threads, the adversarial
// simulator, and the simulator with crash injection (Scenario::crashes
// wrapping sim::CrashAdversary) — under crashes the surviving processes'
// invariants must still hold. Because the suite iterates the Registry's
// facet tables, a newly registered implementation is conformance-tested
// with zero new test code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "api/registry.h"
#include "api/workload.h"
#include "obs/flight_recorder.h"
#include "renaming/validate.h"
#include "sim/linearizability.h"

namespace renamelib::api {
namespace {

// Post-mortem instrumentation: the whole suite runs with the flight
// recorder on, and a failing test prints the tail of the event stream that
// led into it — which interleaving of grants, CAS losses, and reclaims the
// rejected execution actually took. Fresh ring per test so the tail never
// shows a previous test's events.
class FlightTailOnFailure : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo&) override {
    obs::FlightRecorder::instance().reset();
    obs::FlightRecorder::set_enabled(true);
  }
  void OnTestEnd(const ::testing::TestInfo& info) override {
    obs::FlightRecorder::set_enabled(false);
    if (info.result() != nullptr && info.result()->Failed()) {
      std::cout << obs::FlightRecorder::instance().format_tail();
    }
  }
};

[[maybe_unused]] const int kFlightListenerInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new FlightTailOnFailure);
  return 0;
}();

// ------------------------------------------------------------- registry ---

TEST(Registry, ExposesThreeFacets) {
  const auto& reg = Registry::global();
  const auto facets = reg.facets();
  ASSERT_GE(facets.size(), 3u);
  EXPECT_NE(std::find(facets.begin(), facets.end(), Facet::kCounter),
            facets.end());
  EXPECT_NE(std::find(facets.begin(), facets.end(), Facet::kRenaming),
            facets.end());
  EXPECT_NE(std::find(facets.begin(), facets.end(), Facet::kReadable),
            facets.end());

  // Acceptance names: the long-lived family and the readable counters are
  // resolvable by spec string through their facets.
  EXPECT_NE(reg.find_renaming("longlived"), nullptr);
  EXPECT_NE(reg.find_readable("monotone"), nullptr);
  EXPECT_NE(reg.find_readable("maxregtree"), nullptr);
  EXPECT_NE(reg.find_readable("striped"), nullptr);
  EXPECT_NE(reg.make_renaming("longlived:cap=64"), nullptr);
  EXPECT_NE(reg.make_readable("monotone"), nullptr);
  EXPECT_NE(reg.make_readable("maxregtree:n=8,cap=1024"), nullptr);
  EXPECT_NE(reg.make_readable("striped:stripes=8"), nullptr);
}

TEST(Registry, NamesAreUniquePerFacetNotRegistryWide) {
  const auto& reg = Registry::global();
  // "striped" plays two roles: dispenser counter and readable statistic
  // counter — same name, two facets, two distinct objects.
  EXPECT_NE(reg.find_counter("striped"), nullptr);
  EXPECT_NE(reg.find_readable("striped"), nullptr);
  const auto dispenser = reg.make_counter("striped:stripes=8");
  const auto statistic = reg.make_readable("striped:stripes=8");
  ASSERT_NE(dispenser, nullptr);
  ASSERT_NE(statistic, nullptr);
  // But it is not a renaming.
  EXPECT_THROW(reg.make_renaming("striped"), std::invalid_argument);
}

TEST(Registry, ListsAtLeastSixImplementationsAcrossFiveFamilies) {
  const auto& reg = Registry::global();
  EXPECT_GE(reg.list().size(), 6u);
  EXPECT_GE(reg.list(Facet::kCounter).size(), 4u);
  EXPECT_GE(reg.list(Facet::kRenaming).size(), 5u);
  EXPECT_GE(reg.list(Facet::kReadable).size(), 3u);
  std::set<std::string> families;
  for (const auto& r : reg.renamings()) families.insert(family_name(r.family));
  for (const auto& c : reg.counters()) families.insert(family_name(c.family));
  for (const auto& d : reg.readables()) families.insert(family_name(d.family));
  // The families the paper's machinery spans must all be present.
  EXPECT_TRUE(families.count("renaming"));
  EXPECT_TRUE(families.count("fai-counting"));
  EXPECT_TRUE(families.count("counting-network"));
  EXPECT_TRUE(families.count("sharded"));
  EXPECT_TRUE(families.count("baseline"));
}

TEST(Registry, SpecGrammarRoundTrip) {
  const Spec s = Spec::parse("bounded_fai:tas=hw,m=64");
  EXPECT_EQ(s.name(), "bounded_fai");
  EXPECT_EQ(s.get_u64("m", 0), 64u);
  EXPECT_EQ(s.get("tas", ""), "hw");
  // Canonical print sorts keys, so spellings that configure the same object
  // are one identifier — and parse(print()) is a fixed point.
  EXPECT_EQ(s.print(), "bounded_fai:m=64,tas=hw");
  EXPECT_EQ(Spec::parse(s.print()).print(), s.print());

  const Spec bare = Spec::parse("adaptive_strong");
  EXPECT_EQ(bare.name(), "adaptive_strong");
  EXPECT_TRUE(bare.options().empty());
  EXPECT_EQ(bare.print(), "adaptive_strong");
}

TEST(Registry, SpecBuilderIsTheConstructionSide) {
  const Spec s = SpecBuilder("lease")
                     .opt("quota", 8)
                     .opt("inner", SpecBuilder("striped").opt("stripes", 8))
                     .build();
  EXPECT_EQ(s.print(), "lease:inner=[striped:stripes=8],quota=8");
  EXPECT_EQ(s.get_spec("inner", "atomic_fai").get_u64("stripes", 0), 8u);
  EXPECT_NE(Registry::global().make_counter(s), nullptr);
  EXPECT_THROW(SpecBuilder("striped").opt("stripes", 4).opt("stripes", 8),
               std::invalid_argument);
  // Grammar metacharacters cannot enter a Spec programmatically either —
  // that is what makes the parse(print) round-trip guarantee total.
  EXPECT_THROW(SpecBuilder("x").opt("k", "a,b"), std::invalid_argument);
  EXPECT_THROW(SpecBuilder("x").opt("k", "a:b"), std::invalid_argument);
  EXPECT_THROW(SpecBuilder("x").opt("k", "[a]"), std::invalid_argument);
  EXPECT_THROW(SpecBuilder("x").opt("k=v", "1"), std::invalid_argument);
}

TEST(Registry, RejectsMalformedAndUnknownSpecs) {
  auto& reg = Registry::global();
  EXPECT_THROW(Spec::parse(""), std::invalid_argument);
  EXPECT_THROW(Spec::parse(":m=1"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("x:notakv"), std::invalid_argument);
  EXPECT_THROW(reg.make_counter("no_such_counter"), std::invalid_argument);
  EXPECT_THROW(reg.make_renaming("no_such_renaming"), std::invalid_argument);
  EXPECT_THROW(reg.make_readable("no_such_readable"), std::invalid_argument);
  // Typo'd key: rejected, not silently defaulted.
  EXPECT_THROW(reg.make_counter("bounded_fai:bogus=1"), std::invalid_argument);
  EXPECT_THROW(reg.make_readable("maxregtree:bogus=1"), std::invalid_argument);
  // Non-power-of-two geometry.
  EXPECT_THROW(reg.make_counter("bounded_fai:m=3"), std::invalid_argument);
  EXPECT_THROW(reg.make_counter("bounded_fai:m=x"), std::invalid_argument);
  // Wrong facet: a renaming name is not a counter and vice versa.
  EXPECT_THROW(reg.make_counter("adaptive_strong"), std::invalid_argument);
  EXPECT_THROW(reg.make_renaming("bounded_fai"), std::invalid_argument);
  EXPECT_THROW(reg.make_readable("bounded_fai"), std::invalid_argument);
}

TEST(Registry, WrongFacetErrorsNameTheFacetThatKnowsTheName) {
  auto& reg = Registry::global();
  // Asking the wrong facet is a one-read fix: the error names where the
  // spec actually lives.
  try {
    reg.make_counter("adaptive_strong");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown counter"), std::string::npos) << msg;
    EXPECT_NE(msg.find("renaming facet"), std::string::npos) << msg;
  }
  try {
    reg.make_renaming("monotone");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("readable-counter facet"),
              std::string::npos)
        << e.what();
  }
  try {
    reg.make_renaming("striped");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // Registered under both other facets; the hint lists both.
    EXPECT_NE(msg.find("counter"), std::string::npos) << msg;
    EXPECT_NE(msg.find("readable-counter"), std::string::npos) << msg;
  }
}

TEST(Registry, UnknownKeyErrorsListTheValidKeys) {
  auto& reg = Registry::global();
  // A typo'd key must name the keys the family accepts, not just echo the
  // spec back.
  try {
    reg.make_counter("bounded_fai:bogus=1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid keys"), std::string::npos) << msg;
    EXPECT_NE(msg.find("m"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tas"), std::string::npos) << msg;
  }
  try {
    reg.make_counter("lease:iner=x");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("inner"), std::string::npos) << msg;
    EXPECT_NE(msg.find("quota"), std::string::npos) << msg;
  }
  try {
    reg.make_renaming("longlived:capacity=8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos)
        << e.what();
  }
  // A spec with no options at all says so rather than listing nothing.
  try {
    reg.make_counter("atomic_fai:x=1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no options"), std::string::npos)
        << e.what();
  }
}

TEST(Registry, UnknownNamesAndKeysSuggestTheClosestSpelling) {
  auto& reg = Registry::global();
  // Typos within edit distance 2 get a did-you-mean, uniformly for entry
  // names and option keys, on every facet.
  try {
    reg.make_counter("stripd");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'striped'?"),
              std::string::npos)
        << e.what();
  }
  try {
    reg.make_counter("striped:stripse=8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'stripes'?"),
              std::string::npos)
        << e.what();
  }
  try {
    reg.make_renaming("adaptiv_strong");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'adaptive_strong'?"),
              std::string::npos)
        << e.what();
  }
  try {
    reg.make_readable("maxregtree:caap=64");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'cap'?"),
              std::string::npos)
        << e.what();
  }
  // Distance > 2: no wild guess, just the valid alternatives.
  try {
    reg.make_renaming("longlived:capacity=8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos)
        << e.what();
  }
}

TEST(Registry, ValidatesTypedOptionValues) {
  auto& reg = Registry::global();
  // Enum values outside the declared choices name them.
  try {
    reg.make_counter("bounded_fai:tas=foo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("one of {rnd, hw}"), std::string::npos) << msg;
  }
  // Range violations name the accepted interval.
  try {
    reg.make_counter("striped:stripes=9999");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[1, 4096]"), std::string::npos)
        << e.what();
  }
  // Nested specs where a scalar belongs are rejected.
  EXPECT_THROW(reg.make_counter("striped:stripes=[striped]"),
               std::invalid_argument);
  // validate() is the construction-free check renamectl and tools use.
  EXPECT_NO_THROW(reg.validate(Facet::kCounter,
                               Spec::parse("lease:inner=[striped:stripes=8]")));
  EXPECT_THROW(reg.validate(Facet::kCounter, Spec::parse("lease:inner=[x]")),
               std::invalid_argument);
  // canonical() = validate + stable identifier.
  EXPECT_EQ(reg.canonical(Facet::kCounter, "lease:procs=4,quota=8"),
            "lease:procs=4,quota=8");
  EXPECT_EQ(reg.canonical(Facet::kCounter, "lease:quota=8,procs=4"),
            "lease:procs=4,quota=8");
}

TEST(Registry, NestedSpecValuesSurviveBracketing) {
  // Commas inside [...] belong to the nested spec, which parses into a
  // first-class AST node the enclosing implementation reads directly.
  const Spec s =
      Spec::parse("lease:quota=8,inner=[bounded_fai:tas=hw,m=64]");
  EXPECT_EQ(s.name(), "lease");
  EXPECT_EQ(s.get_u64("quota", 0), 8u);
  ASSERT_TRUE(s.find("inner") != nullptr && s.find("inner")->is_spec());
  const Spec& inner = s.find("inner")->spec();
  EXPECT_EQ(inner.name(), "bounded_fai");
  EXPECT_EQ(inner.get_u64("m", 0), 64u);
  // Canonical print sorts keys at every nesting level.
  EXPECT_EQ(s.print(), "lease:inner=[bounded_fai:m=64,tas=hw],quota=8");
  EXPECT_EQ(Spec::parse(s.print()).print(), s.print());

  // Unbracketed nested specs still work when they carry no comma, and a
  // bare-name nested value canonicalizes without brackets.
  const Spec bare = Spec::parse("lease:inner=bounded_fai");
  EXPECT_EQ(bare.get_spec("inner", "").name(), "bounded_fai");
  EXPECT_EQ(Spec::parse("lease:inner=[bounded_fai]").print(),
            "lease:inner=bounded_fai");
  EXPECT_EQ(Spec::parse("lease:inner=striped:stripes=4").print(),
            "lease:inner=[striped:stripes=4]");

  // Unbalanced brackets are malformed, not silently reinterpreted.
  EXPECT_THROW(Spec::parse("lease:inner=[striped"), std::invalid_argument);
  EXPECT_THROW(Spec::parse("lease:inner=striped]"), std::invalid_argument);

  // The composite constructs, and a bogus inner fails with the registry's
  // own unknown-name error.
  auto& reg = Registry::global();
  EXPECT_NE(reg.make_counter("lease:quota=4,inner=[striped:stripes=4]"),
            nullptr);
  EXPECT_THROW(reg.make_counter("lease:inner=no_such_inner"),
               std::invalid_argument);
  // A renaming is not a valid inner counter.
  EXPECT_THROW(reg.make_counter("lease:inner=adaptive_strong"),
               std::invalid_argument);
}

TEST(Registry, ConstructsEveryBuiltinWithCustomParams) {
  auto& reg = Registry::global();
  EXPECT_NE(reg.make_counter("bounded_fai:m=64,tas=hw"), nullptr);
  EXPECT_NE(reg.make_counter("bitonic_countnet:w=8"), nullptr);
  EXPECT_NE(reg.make_renaming("bit_batching:n=32,tas=ratrace"), nullptr);
  EXPECT_NE(reg.make_renaming("renaming_network:w=16,tas=hw"), nullptr);
  EXPECT_NE(reg.make_renaming("linear_probe:cap=128"), nullptr);
  EXPECT_NE(reg.make_renaming("moir_anderson:n=16"), nullptr);
  EXPECT_NE(reg.make_renaming("longlived:cap=32"), nullptr);
  EXPECT_NE(reg.make_counter("striped:stripes=8"), nullptr);
  EXPECT_NE(reg.make_readable("monotone:tas=hw"), nullptr);
  EXPECT_NE(reg.make_readable("maxregtree:n=16,cap=4096"), nullptr);
  EXPECT_NE(reg.make_readable("striped:stripes=4"), nullptr);
}

// ---------------------------------------------------- shared mode sweep ---

/// One schedule of the three-way sweep: hardware threads, the adversarial
/// simulator, or the simulator with crash injection.
enum class Mode { kSim, kHardware, kCrash };

const char* mode_suffix(Mode m) {
  switch (m) {
    case Mode::kSim: return "_sim";
    case Mode::kHardware: return "_hw";
    case Mode::kCrash: return "_crash";
  }
  return "_?";
}

/// Scenario for `mode`; crash mode kills `max_crashes` seed-chosen victims
/// within their first `crash_step_max` shared steps. Callers size
/// ops_per_proc so every victim still has work at its threshold — then the
/// crash count is exact, not best-effort.
Scenario scenario_for(Mode mode, int nproc, int ops_per_proc,
                      std::uint64_t seed, std::size_t max_crashes = 1,
                      std::uint64_t crash_step_max = 2) {
  Scenario s;
  s.nproc = nproc;
  s.ops_per_proc = ops_per_proc;
  s.backend = mode == Mode::kHardware ? Backend::kHardware : Backend::kSimulated;
  s.seed = seed;
  if (mode == Mode::kCrash) {
    s.crashes.max_crashes = max_crashes;
    s.crashes.crash_step_max = crash_step_max;
  }
  return s;
}

struct ParamName {
  template <typename T>
  std::string operator()(const ::testing::TestParamInfo<T>& info) const {
    const auto& [name, mode] = info.param;
    return name + mode_suffix(mode);
  }
};

std::vector<std::tuple<std::string, Mode>> sweep(
    const std::vector<std::string>& names) {
  std::vector<std::tuple<std::string, Mode>> out;
  for (const auto& n : names) {
    out.emplace_back(n, Mode::kSim);
    out.emplace_back(n, Mode::kHardware);
    out.emplace_back(n, Mode::kCrash);
  }
  return out;
}

// ------------------------------------------------------------- counters ---

/// Per-process value slack of an escrow-family entry, read off its schema:
/// the lease family withholds at most one `quota`-sized range per pid.
std::uint64_t escrow_slack(const CounterInfo& info) {
  for (const auto& o : info.options) {
    if (o.key == "quota") return std::stoull(o.def);
  }
  ADD_FAILURE() << info.name << " declares no escrow range option";
  return 0;
}

class CounterConformance
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>> {};

TEST_P(CounterConformance, DenseValuesAndLinearizability) {
  const auto& [name, mode] = GetParam();
  const CounterInfo* info = Registry::global().find_counter(name);
  ASSERT_NE(info, nullptr);

  // The registry's declared consistency and the adapter's own must agree —
  // the Wing–Gong check below is keyed off the registry entry.
  {
    const auto counter = Registry::global().make_counter(name);
    ASSERT_EQ(counter->consistency(), info->consistency) << name;
  }

  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto counter = Registry::global().make_counter(name);
    // Crash mode: every counter op costs >= 1 shared step, so with 4 ops per
    // process and thresholds in [1, 2] both victims are killed mid-run.
    const Scenario s = scenario_for(mode, 4, mode == Mode::kCrash ? 4 : 2,
                                    seed + 1, /*max_crashes=*/2);
    Workload workload = [&] {
      Scenario with_history = s;
      with_history.record_history =
          (mode != Mode::kCrash &&
           info->consistency == Consistency::kLinearizable);
      return Workload(with_history);
    }();
    const api::Run run = workload.run(*counter);

    const std::size_t attempted =
        static_cast<std::size_t>(s.nproc) * s.ops_per_proc;
    ASSERT_LT(attempted, counter->capacity()) << "scenario must not saturate";

    if (mode == Mode::kCrash) {
      // Exactly the planned crashes happened; survivors completed all ops,
      // and victims contributed only the ops they finished before dying.
      ASSERT_EQ(run.crashed_procs, 2u) << name << " seed=" << seed;
      ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc) - 2);
      ASSERT_GE(run.ops.size(),
                run.finished_procs * static_cast<std::size_t>(s.ops_per_proc));
      ASSERT_LT(run.ops.size(), attempted);
      // Crashed operations may have consumed values, so the survivors'
      // values need not be a dense prefix — but they must stay unique and
      // within the started-operation bound. Escrow-leased entries hand out
      // positions from quota-sized per-pid ranges, so their bound is the
      // quota-rounded one: every value lies inside some minted range, and at
      // most one range per pid is in flight.
      const std::uint64_t crash_bound =
          info->consistency == Consistency::kEscrow
              ? attempted +
                    static_cast<std::uint64_t>(s.nproc) * escrow_slack(*info)
              : attempted;
      std::set<std::uint64_t> unique;
      for (const std::uint64_t v : run.values()) {
        EXPECT_TRUE(unique.insert(v).second)
            << name << " seed=" << seed << ": duplicate value " << v;
        EXPECT_LT(v, crash_bound) << name << " seed=" << seed;
      }
      EXPECT_EQ(run.metrics.ops, run.ops.size());
      continue;
    }

    ASSERT_EQ(run.crashed_procs, 0u);
    ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc));
    ASSERT_EQ(run.ops.size(), attempted);

    if (info->consistency == Consistency::kEscrow) {
      // Escrow-leased values are unique and quota-bounded, never dense: each
      // pid's partially drained lease withholds the tail of its range.
      const std::uint64_t bound =
          attempted +
          static_cast<std::uint64_t>(s.nproc) * escrow_slack(*info);
      std::set<std::uint64_t> unique;
      for (const std::uint64_t v : run.values()) {
        EXPECT_TRUE(unique.insert(v).second)
            << name << " seed=" << seed << ": duplicate value " << v;
        EXPECT_LT(v, bound) << name << " seed=" << seed;
      }
    } else {
      // Every other counter family hands out a dense prefix once quiescent.
      std::vector<std::uint64_t> sorted = run.values();
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t i = 0; i < attempted; ++i) {
        EXPECT_EQ(sorted[i], i) << name << " seed=" << seed;
      }
    }

    // Unified metrics sanity.
    EXPECT_EQ(run.metrics.ops, attempted);
    EXPECT_GT(run.metrics.steps, 0u);
    EXPECT_GE(run.metrics.steps, run.metrics.shared_steps);
    EXPECT_LE(run.metrics.max_op_steps, run.metrics.steps);
    EXPECT_LE(run.metrics.max_proc_steps, run.metrics.steps);
    if (info->consistency != Consistency::kEscrow) {
      // Locally served lease ops cost zero shared steps, so the escrow
      // family legitimately undercuts the 1-step/op floor.
      EXPECT_GE(run.metrics.mean_op_steps(), 1.0);
    }

    if (info->consistency == Consistency::kLinearizable) {
      const std::uint64_t m = counter->capacity() == ICounter::kUnbounded
                                  ? (1ULL << 40)
                                  : counter->capacity();
      sim::BoundedFaiSpec spec(m);
      EXPECT_TRUE(sim::is_linearizable(run.history, spec))
          << name << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CounterConformance,
    ::testing::ValuesIn(sweep(Registry::global().list(Facet::kCounter))),
    ParamName{});

// --------------------------------------------------- sharded spec sweep ---

// The registered-name sweep above already covers `striped` at default
// params; this sweep exercises the stripe-count axis under all three
// schedules.
class ShardedSpecConformance
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>> {};

struct SpecName {
  template <typename T>
  std::string operator()(const ::testing::TestParamInfo<T>& info) const {
    const auto& [spec, mode] = info.param;
    std::string out;
    for (const char c : spec) {
      out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
    }
    return out + mode_suffix(mode);
  }
};

TEST_P(ShardedSpecConformance, DenseValuePrefix) {
  const auto& [spec, mode] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto counter = Registry::global().make_counter(spec);
    ASSERT_EQ(counter->consistency(), Consistency::kQuiescent) << spec;
    const Scenario s = scenario_for(mode, 6, 4, seed + 1, /*max_crashes=*/2);
    const api::Run run = Workload(s).run(*counter);

    const std::size_t attempted =
        static_cast<std::size_t>(s.nproc) * s.ops_per_proc;
    ASSERT_LT(attempted, counter->capacity()) << spec;

    if (mode == Mode::kCrash) {
      ASSERT_EQ(run.crashed_procs, 2u) << spec << " seed=" << seed;
      ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc) - 2);
      std::set<std::uint64_t> unique;
      for (const std::uint64_t v : run.values()) {
        ASSERT_TRUE(unique.insert(v).second)
            << spec << " seed=" << seed << ": duplicate value " << v;
        ASSERT_LT(v, attempted) << spec << " seed=" << seed;
      }
      continue;
    }

    ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc));
    ASSERT_EQ(run.ops.size(), attempted);

    std::vector<std::uint64_t> sorted = run.values();
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < attempted; ++i) {
      ASSERT_EQ(sorted[i], i) << spec << " seed=" << seed;
    }
    EXPECT_EQ(run.metrics.ops, attempted);
    EXPECT_GT(run.metrics.steps, 0u);
    EXPECT_GE(run.metrics.steps, run.metrics.shared_steps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ShardedSpecConformance,
    ::testing::ValuesIn(sweep({
        "striped:stripes=1",
        "striped:stripes=16",
    })),
    SpecName{});

// ------------------------------------------------------------ renamings ---

class RenamingConformance
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>> {};

TEST_P(RenamingConformance, UniqueAndTightNames) {
  const auto& [name, mode] = GetParam();
  const RenamingInfo* info = Registry::global().find_renaming(name);
  ASSERT_NE(info, nullptr);

  const Spec defaults;  // run under each entry's default geometry
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    // Hold-all scenario: every acquire keeps its name, so uniqueness and
    // tightness are checkable from the value set. Crash mode: acquires cost
    // >= 1 shared step each, so 4 ops per process outlast thresholds in
    // [1, 2] and the single victim is killed mid-run.
    const Scenario s =
        scenario_for(mode, 4, mode == Mode::kCrash ? 4 : 2, seed + 1);
    const int attempted = s.nproc * s.ops_per_proc;
    ASSERT_LE(attempted, info->max_requests(defaults));

    const auto obj = Registry::global().make_renaming(name);
    const api::Run run = Workload(s).run(*obj);

    if (mode == Mode::kCrash) {
      ASSERT_EQ(run.crashed_procs, 1u) << name << " seed=" << seed;
      ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc) - 1);
    } else {
      ASSERT_EQ(run.crashed_procs, 0u);
      ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc));
      ASSERT_EQ(run.ops.size(), static_cast<std::size_t>(attempted));
      // Nothing was released, so every acquired name is still held.
      EXPECT_EQ(obj->holders(), static_cast<std::uint64_t>(attempted)) << name;
    }

    // Survivors' names are unique and within the bound for the started
    // requests — crashes may strand names but never violate either.
    const auto unique = renaming::check_unique(run.values());
    EXPECT_TRUE(unique.ok) << name << " seed=" << seed << ": " << unique.error;
    const auto tight = renaming::check_tight(
        run.values(), info->name_bound(attempted, defaults));
    EXPECT_TRUE(tight.ok) << name << " seed=" << seed << ": " << tight.error;

    EXPECT_EQ(run.metrics.ops, run.ops.size());
    EXPECT_GT(run.metrics.steps, 0u);
  }
}

TEST_P(RenamingConformance, ReusableEntriesRecycleReleasedNames) {
  const auto& [name, mode] = GetParam();
  const RenamingInfo* info = Registry::global().find_renaming(name);
  ASSERT_NE(info, nullptr);
  {
    const auto probe = Registry::global().make_renaming(name);
    ASSERT_EQ(probe->reusable(), info->reusable) << name;
  }
  if (!info->reusable) return;  // churn is meaningless for one-shot entries

  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    // Churn scenario: each operation acquires and immediately releases, so
    // at most nproc names are concurrently held even though far more
    // requests run than max_requests would allow a hold-all run.
    const Scenario s = scenario_for(mode, 6, 12, seed + 1);
    const auto obj = Registry::global().make_renaming(name);
    const api::Run run = Workload(s).run_ops([&obj](Ctx& ctx) {
      const std::uint64_t n = obj->acquire(ctx);
      obj->release(ctx, n);
      return n;
    });

    if (mode == Mode::kCrash) {
      ASSERT_EQ(run.crashed_procs, 1u) << name << " seed=" << seed;
      // A holder that crashed between acquire and release leaks exactly its
      // own name; everyone else drained.
      EXPECT_LE(obj->holders(), 1u) << name << " seed=" << seed;
    } else {
      ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc));
      EXPECT_EQ(obj->holders(), 0u) << name << " seed=" << seed;
    }

    // Names recycle: far fewer distinct names than completed acquires
    // (72 acquires over at most nproc concurrent holders), and every name
    // stays within the entry's hard bound for nproc concurrent holders.
    // (The *whp* O(holders) smallness is asserted by the long-lived unit
    // tests; here the facet only promises the every-execution bound.)
    const Spec defaults;
    const auto values = run.values();
    const std::set<std::uint64_t> distinct(values.begin(), values.end());
    EXPECT_LT(distinct.size(), values.size()) << name << " seed=" << seed;
    const std::uint64_t bound = info->name_bound(s.nproc, defaults);
    for (const std::uint64_t v : values) {
      EXPECT_GE(v, 1u) << name << " seed=" << seed;
      EXPECT_LE(v, bound) << name << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, RenamingConformance,
    ::testing::ValuesIn(sweep(Registry::global().list(Facet::kRenaming))),
    ParamName{});

// --------------------------------------------------- adaptivity contract ---

TEST(RenamingConformance, AdaptiveEntriesDeclareKOnlyBounds) {
  // Entries marked adaptive must have a name bound independent of any
  // provisioned size param; non-adaptive ones depend on their n.
  const Spec defaults;
  for (const auto& r : Registry::global().renamings()) {
    if (r.adaptive) {
      EXPECT_LE(r.name_bound(2, defaults), 3u) << r.name;
    } else {
      EXPECT_GT(r.name_bound(2, defaults), 3u) << r.name;
    }
  }
}

// ------------------------------------------------------------- readables ---

class ReadableConformance
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>> {};

TEST_P(ReadableConformance, MonotoneReadsWithinIncrementBounds) {
  const auto& [name, mode] = GetParam();
  const ReadableInfo* info = Registry::global().find_readable(name);
  ASSERT_NE(info, nullptr);

  {
    const auto counter = Registry::global().make_readable(name);
    ASSERT_EQ(counter->consistency(), info->consistency) << name;
  }

  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto counter = Registry::global().make_readable(name);
    // Mixed workload: Workload::run makes every third op a read. Crash
    // mode: 6 ops per process (each >= 1 shared step) outlast thresholds
    // in [1, 2].
    Scenario s = scenario_for(mode, 4, 6, seed + 1);
    ASSERT_LE(s.nproc, counter->max_procs()) << name;
    s.record_history = (mode != Mode::kCrash &&
                        info->consistency == Consistency::kLinearizable);
    const api::Run run = Workload(s).run(*counter);

    const std::size_t inc_per_proc = 4, read_per_proc = 2;  // of 6 ops
    const std::uint64_t attempted_incs =
        static_cast<std::uint64_t>(s.nproc) * inc_per_proc;
    const std::uint64_t completed_incs = run.values_of("inc").size();

    if (mode == Mode::kCrash) {
      ASSERT_EQ(run.crashed_procs, 1u) << name << " seed=" << seed;
      ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc) - 1);
    } else {
      ASSERT_EQ(run.finished_procs, static_cast<std::size_t>(s.nproc));
      ASSERT_EQ(completed_incs, attempted_incs);
      ASSERT_EQ(run.values_of("read").size(),
                static_cast<std::size_t>(s.nproc) * read_per_proc);
    }

    // Reads never exceed the started increments, and each process's own
    // reads are non-decreasing (they never overlap each other).
    std::map<int, std::uint64_t> last_read;
    for (const auto& op : run.ops) {
      if (op.kind != "read") continue;
      EXPECT_LE(op.value, attempted_incs) << name << " seed=" << seed;
      auto [it, fresh] = last_read.try_emplace(op.pid, op.value);
      if (!fresh) {
        EXPECT_GE(op.value, it->second)
            << name << " seed=" << seed << " pid=" << op.pid
            << ": reads went backwards";
        it->second = op.value;
      }
    }

    // Quiescent exactness: a fresh read sees every completed increment and
    // nothing beyond the started ones (crashed increments may or may not
    // have landed).
    Ctx quiescent_ctx(0, /*seed=*/987 + seed);
    const std::uint64_t final_read = counter->read(quiescent_ctx);
    EXPECT_GE(final_read, completed_incs) << name << " seed=" << seed;
    EXPECT_LE(final_read, attempted_incs) << name << " seed=" << seed;
    if (mode != Mode::kCrash) {
      EXPECT_EQ(final_read, completed_incs) << name << " seed=" << seed;
    }

    EXPECT_EQ(run.metrics.ops, run.ops.size());
    EXPECT_GT(run.metrics.steps, 0u);

    if (s.record_history) {
      sim::CounterSpec spec;
      EXPECT_TRUE(sim::is_linearizable(run.history, spec))
          << name << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ReadableConformance,
    ::testing::ValuesIn(sweep(Registry::global().list(Facet::kReadable))),
    ParamName{});

// ------------------------------------------------------ harness contract ---

TEST(WorkloadMetrics, HardwareRunsReportWallClockThroughput) {
  Scenario s;
  s.nproc = 4;
  s.ops_per_proc = 8;
  s.backend = Backend::kHardware;
  s.seed = 7;
  const api::Run run =
      Workload::run_facet_spec(Facet::kCounter, "atomic_fai", s);
  ASSERT_EQ(run.ops.size(), 32u);
  EXPECT_GT(run.metrics.wall_seconds, 0.0);
  EXPECT_GT(run.metrics.ops_per_sec(), 0.0);
  // The latency recording holds every op (clock granularity can zero out an
  // individual sample, but not the whole run's maximum).
  ASSERT_EQ(run.latency.count(), 32u);
  EXPECT_GT(run.latency.max(), 0u);
  EXPECT_LE(run.latency.percentile(0.50), run.latency.percentile(0.99));
}

TEST(WorkloadMetrics, DroppingOpSamplesKeepsMetricsAndLatency) {
  Scenario s;
  s.nproc = 2;
  s.ops_per_proc = 16;
  s.backend = Backend::kHardware;
  s.seed = 11;
  s.keep_op_samples = false;
  const api::Run run =
      Workload::run_facet_spec(Facet::kCounter, "atomic_fai", s);
  EXPECT_TRUE(run.ops.empty());
  EXPECT_EQ(run.metrics.ops, 32u);
  EXPECT_EQ(run.latency.count(), 32u);
  EXPECT_GT(run.metrics.ops_per_sec(), 0.0);
}

TEST(WorkloadMetrics, LatencySamplePeriodSamplesEveryNthOp) {
  Scenario s;
  s.nproc = 4;
  s.ops_per_proc = 10;
  s.backend = Backend::kHardware;
  s.seed = 5;
  s.latency_sample_period = 4;  // ops 0, 4 and 8 of each process
  api::Run run = Workload::run_facet_spec(Facet::kCounter, "atomic_fai", s);
  EXPECT_EQ(run.metrics.ops, 40u);
  EXPECT_EQ(run.latency.count(), 12u);

  s.latency_sample_period = 0;  // latency recording off
  run = Workload::run_facet_spec(Facet::kCounter, "atomic_fai", s);
  EXPECT_EQ(run.metrics.ops, 40u);
  EXPECT_EQ(run.latency.count(), 0u);
}

TEST(WorkloadMetrics, SimulatedRunsHaveNoWallClock) {
  Scenario s;
  s.nproc = 2;
  s.ops_per_proc = 2;
  s.backend = Backend::kSimulated;
  const api::Run run =
      Workload::run_facet_spec(Facet::kCounter, "atomic_fai", s);
  EXPECT_EQ(run.metrics.wall_seconds, 0.0);
  EXPECT_EQ(run.metrics.ops_per_sec(), 0.0);
  EXPECT_EQ(run.latency.count(), 0u);
}

}  // namespace
}  // namespace renamelib::api
