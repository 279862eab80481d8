// Facet-driven conformance suite: every registered implementation of every
// facet under one judge.
//
//   * the facet predicates — the conformance sweep
//     (tests/conformance_sweep.h) runs every registry entry and a few extra
//     specs through fuzz::run_case, the judge the fuzzer and the corpus
//     replay use, on hardware threads, the adversarial simulator, and the
//     simulator with crash injection. run_case holds the oracles: dense
//     prefixes and Wing–Gong for counters, escrow bounds, renaming
//     uniqueness, tightness and holder accounting, readable read bounds,
//     monotonicity and quiescent exactness, completed-op accounting and the
//     metrics contract (src/fuzz/oracles.h),
//   * the declarations those oracles key on — adapters agree with their
//     registry entries, adaptive entries declare k-only name bounds,
//   * the registry itself — facet enumeration, spec grammar (including
//     nested bracketed values), error paths and error-message quality,
//   * the workload harness's metrics and latency contract.
//
// Because the sweep iterates the Registry's facet tables, a newly
// registered implementation is conformance-tested with zero new test code.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "api/registry.h"
#include "api/workload.h"
#include "conformance_sweep.h"

namespace renamelib::api {
namespace {

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

// ---------------------------------------------------- conformance sweep ---

// Every registry entry and extra spec (tests/conformance_sweep.h) on the
// simulated and hardware backends, and simulated with crash victims, each
// case judged by fuzz::run_case.
using conformance::Conformance;

TEST_P(Conformance, JudgedByRunCase) { conformance::judge(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Registry, Conformance,
    ::testing::ValuesIn(
        conformance::legs({Backend::kSimulated, Backend::kHardware})),
    conformance::leg_name);

// --------------------------------------------------- declaration contract ---

TEST(Registry, AdaptersDeclareWhatTheirEntriesDeclare) {
  // run_case keys its oracles off the registry entry (Wing–Gong for
  // linearizable entries, churn for reusable ones), so the constructed
  // adapter must agree with it.
  const auto& reg = Registry::global();
  for (const auto& e : reg.counters()) {
    EXPECT_EQ(reg.make_counter(e.name)->consistency(), e.consistency) << e.name;
  }
  for (const auto& e : reg.renamings()) {
    EXPECT_EQ(reg.make_renaming(e.name)->reusable(), e.reusable) << e.name;
  }
  for (const auto& e : reg.readables()) {
    EXPECT_EQ(reg.make_readable(e.name)->consistency(), e.consistency)
        << e.name;
  }
}

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
