// The fuzzer's own test surface (src/fuzz, docs/FUZZING.md), in four
// layers:
//
//   1. Oracle self-tests: every conformance predicate is fed hand-seeded
//      *violating* inputs — a duplicate name, a non-monotone read sequence,
//      a dense-prefix gap, an escrow over-issue, a lost op, a metrics fold
//      that disagrees with its samples — and must reject them. An
//      oracle that silently accepts garbage would make every green fuzzing
//      session meaningless, so the oracles are tested before anything they
//      guard.
//   2. Generator validity: schema-driven generation only ever mints specs
//      the registry validates, canonically printed, and sanitize() is
//      idempotent (shrinking and replay depend on that fixpoint).
//   3. Harness determinism: identically seeded sessions produce identical
//      coverage fingerprints and summaries.
//   4. The end-to-end mutation check: an injected always-wrong oracle must
//      be caught, shrunk to a near-minimal case, and written out as a
//      corpus file that replays to the same failure.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "core/rng.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"

namespace renamelib::fuzz {
namespace {

using api::Facet;

// ------------------------------------------------------ oracle self-tests ---

TEST(Oracles, DensePrefixAcceptsPermutations) {
  EXPECT_TRUE(check_dense_prefix({}).ok);
  EXPECT_TRUE(check_dense_prefix({0}).ok);
  EXPECT_TRUE(check_dense_prefix({2, 0, 1, 3}).ok);
}

TEST(Oracles, DensePrefixRejectsGapAndDuplicate) {
  const OracleResult gap = check_dense_prefix({0, 2, 3});
  EXPECT_FALSE(gap.ok);
  EXPECT_EQ(gap.oracle, "dense_prefix");
  EXPECT_NE(gap.detail.find("gap"), std::string::npos) << gap.detail;

  const OracleResult dup = check_dense_prefix({0, 1, 1});
  EXPECT_FALSE(dup.ok);
  EXPECT_NE(dup.detail.find("duplicate"), std::string::npos) << dup.detail;
}

TEST(Oracles, UniqueBounded) {
  EXPECT_TRUE(check_unique_bounded({5, 0, 2}, 6).ok);
  EXPECT_FALSE(check_unique_bounded({1, 1}, 6).ok);
  EXPECT_FALSE(check_unique_bounded({6}, 6).ok);
}

TEST(Oracles, EscrowBoundFlagsOverIssue) {
  // attempted=2, 1 pid, quota=64: bound 66. 70 is an over-issue.
  EXPECT_TRUE(check_escrow_bound({0, 65}, 2, 1, 64).ok);
  const OracleResult over = check_escrow_bound({0, 70}, 2, 1, 64);
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.oracle, "escrow_bound");
  EXPECT_NE(over.detail.find("over-issue"), std::string::npos) << over.detail;
  EXPECT_FALSE(check_escrow_bound({3, 3}, 2, 1, 64).ok);  // duplicates too
}

TEST(Oracles, RenamingNamesRejectDuplicateAndLoose) {
  EXPECT_TRUE(check_renaming_names({1, 2}, 2).ok);
  const OracleResult dup = check_renaming_names({1, 1}, 5);
  EXPECT_FALSE(dup.ok);
  EXPECT_EQ(dup.oracle, "renaming_unique");
  const OracleResult loose = check_renaming_names({1, 3}, 2);
  EXPECT_FALSE(loose.ok);
  EXPECT_EQ(loose.oracle, "renaming_tight");
}

TEST(Oracles, ReadableReadsRejectNonMonotoneAndOverCount) {
  const auto read = [](int pid, std::uint64_t v) {
    api::OpSample s;
    s.pid = pid;
    s.value = v;
    s.kind = "read";
    return s;
  };
  EXPECT_TRUE(check_readable_reads({read(0, 1), read(1, 3), read(0, 2)}, 4).ok);

  // pid 0's own reads go backwards: 3 then 2.
  const OracleResult back =
      check_readable_reads({read(0, 3), read(1, 1), read(0, 2)}, 4);
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.oracle, "readable_monotone");

  const OracleResult over = check_readable_reads({read(0, 5)}, 4);
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.oracle, "readable_bound");
}

TEST(Oracles, QuiescentRead) {
  EXPECT_TRUE(check_quiescent_read(4, 4, 4, false).ok);
  EXPECT_FALSE(check_quiescent_read(3, 4, 4, false).ok);  // lost an inc
  EXPECT_FALSE(check_quiescent_read(5, 4, 4, false).ok);  // invented one
  EXPECT_TRUE(check_quiescent_read(4, 3, 5, true).ok);    // crash slack
  EXPECT_FALSE(check_quiescent_read(2, 3, 5, true).ok);
  EXPECT_FALSE(check_quiescent_read(6, 3, 5, true).ok);
}

TEST(Oracles, Holders) {
  EXPECT_TRUE(check_holders(1, 0, 1).ok);
  EXPECT_FALSE(check_holders(2, 0, 1).ok);
  EXPECT_FALSE(check_holders(0, 1, 3).ok);
}

TEST(Oracles, OpCountRejectsALostOp) {
  // A crash-free 4x2 run that lost one completed op still hands out a
  // permutation of 0..6, so only the op count can reject it.
  EXPECT_TRUE(check_dense_prefix({0, 1, 2, 3, 4, 5, 6}).ok);
  const OracleResult lost = check_op_count(7, 8, 4, 2, /*crashed=*/false);
  EXPECT_FALSE(lost.ok);
  EXPECT_EQ(lost.oracle, "op_count");
  EXPECT_TRUE(check_op_count(8, 8, 4, 2, false).ok);

  // With crashes: at least the finished processes' ops, at most planned (a
  // proc victim may be killed after its last op).
  EXPECT_TRUE(check_op_count(7, 8, 3, 2, true).ok);
  EXPECT_TRUE(check_op_count(8, 8, 3, 2, true).ok);
  EXPECT_FALSE(check_op_count(5, 8, 3, 2, true).ok);
  EXPECT_FALSE(check_op_count(9, 8, 3, 2, true).ok);
}

TEST(Oracles, MetricsContract) {
  using api::Backend;
  api::Metrics m;
  m.ops = 4;
  m.steps = 8;
  m.shared_steps = 6;
  m.max_op_steps = 3;
  m.max_proc_steps = 4;
  EXPECT_TRUE(check_metrics(m, 4, Backend::kHardware, false, false).ok);
  const OracleResult lost =
      check_metrics(m, 5, Backend::kSimulated, false, false);
  EXPECT_FALSE(lost.ok);
  EXPECT_EQ(lost.oracle, "metrics");
  // The proc fold after a kill counts survivors only: fewer, never more.
  EXPECT_TRUE(check_metrics(m, 5, Backend::kProc, true, false).ok);
  EXPECT_FALSE(check_metrics(m, 3, Backend::kProc, true, false).ok);

  api::Metrics bad = m;
  bad.shared_steps = 9;
  EXPECT_FALSE(check_metrics(bad, 4, Backend::kSimulated, false, false).ok);
  bad = m;
  bad.max_op_steps = 9;
  EXPECT_FALSE(check_metrics(bad, 4, Backend::kSimulated, false, false).ok);
  bad = m;
  bad.max_proc_steps = 9;
  EXPECT_FALSE(check_metrics(bad, 4, Backend::kSimulated, false, false).ok);
  // A simulated victim's unfinished op counts in its process total only.
  EXPECT_TRUE(check_metrics(bad, 4, Backend::kSimulated, true, false).ok);
  bad = m;
  bad.steps = 0;
  bad.shared_steps = bad.max_op_steps = bad.max_proc_steps = 0;
  EXPECT_FALSE(check_metrics(bad, 4, Backend::kSimulated, false, true).ok);

  // Under one step per op: an over-cheap entry, unless it serves from escrow.
  api::Metrics cheap = m;
  cheap.ops = 16;
  EXPECT_FALSE(check_metrics(cheap, 16, Backend::kSimulated, false, false).ok);
  EXPECT_TRUE(check_metrics(cheap, 16, Backend::kSimulated, false, true).ok);
}

// ------------------------------------------------------- corpus round-trip ---

TEST(Corpus, SerializeParseRoundTrip) {
  FuzzCase c;
  c.facet = Facet::kRenaming;
  c.spec = "longlived:cap=16";
  c.work = Work::kChurn;
  c.nproc = 6;
  c.ops_per_proc = 12;
  c.sched = api::Sched::kObstruction;
  c.seed = 99;
  c.max_crashes = 1;
  c.crash_step_max = 3;
  c.read_period = 4;
  c.note = "escaped \"quote\" and back\\slash";
  const std::string text = serialize_case(c);
  const FuzzCase parsed = parse_case(text);
  EXPECT_EQ(serialize_case(parsed), text);
  EXPECT_EQ(parsed.note, c.note);
  EXPECT_EQ(case_hash(parsed), case_hash(c));
}

TEST(Corpus, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(parse_case("{}"), std::invalid_argument);  // missing format
  EXPECT_THROW(parse_case("{\"format\": \"renamelib.fuzz_case.v1\"}"),
               std::invalid_argument);  // missing spec
  FuzzCase c;
  c.spec = "atomic_fai";
  std::string text = serialize_case(c);
  text.insert(text.rfind('}'), ",\n  \"mystery\": 1\n");
  EXPECT_THROW(parse_case(text), std::invalid_argument);  // unknown key
  // A repro written before the arrival-shaping keys were deleted must fail
  // loudly rather than replay a different schedule.
  std::string old_repro = serialize_case(c);
  old_repro.insert(old_repro.rfind('}'), ",\n  \"think_max\": 0\n");
  try {
    parse_case(old_repro);
    ADD_FAILURE() << "a document carrying think_max parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("think_max"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------ generator validity ---

TEST(Generator, MintsOnlyValidCanonicalSpecs) {
  const api::Registry& reg = api::Registry::global();
  Generator gen(reg);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const FuzzCase c = gen.random_case(rng);
    SCOPED_TRACE(serialize_case(c));
    const api::Spec spec = api::Spec::parse(c.spec);
    ASSERT_NO_THROW(reg.validate(c.facet, spec));
    // Canonical fixpoint: what the generator emits is what reports key on.
    EXPECT_EQ(reg.canonical(c.facet, c.spec), c.spec);
    // Sanitize idempotence: shrinking and replay re-sanitize freely.
    FuzzCase again = c;
    gen.sanitize(again);
    EXPECT_EQ(serialize_case(again), serialize_case(c));
  }
}

TEST(Generator, MutantsStayValid) {
  const api::Registry& reg = api::Registry::global();
  Generator gen(reg);
  Rng rng(19);
  FuzzCase c = gen.random_case(rng);
  for (int i = 0; i < 60; ++i) {
    c = gen.mutate(c, rng);
    SCOPED_TRACE(serialize_case(c));
    ASSERT_NO_THROW(reg.validate(c.facet, api::Spec::parse(c.spec)));
    EXPECT_GE(c.nproc, 1);
    EXPECT_GE(c.ops_per_proc, 1);
    EXPECT_LT(c.max_crashes, static_cast<std::size_t>(c.nproc));
  }
}

TEST(Generator, ExploreCasesCapIntegerOptions) {
  // An exploration case constructs its object once per enumerated schedule,
  // so sanitize() caps its integer options (nested inners included, powers
  // of two kept); the same spec under the standard workload is untouched.
  Generator gen(api::Registry::global());
  FuzzCase c;
  c.spec = "bitonic_countnet:w=256";
  c.work = Work::kExplore;
  gen.sanitize(c);
  EXPECT_EQ(c.spec, "bitonic_countnet:w=64");
  c.spec = "lease:procs=4096,quota=2,inner=[striped:stripes=4096]";
  gen.sanitize(c);
  EXPECT_EQ(c.spec, "lease:inner=[striped:stripes=64],procs=64,quota=2");
  c.spec = "bitonic_countnet:w=256";
  c.work = Work::kStandard;
  gen.sanitize(c);
  EXPECT_EQ(c.spec, "bitonic_countnet:w=256");
}

// -------------------------------------------------------- run_case basics ---

TEST(RunCase, EveryCatalogEntryPassesAtDefaults) {
  const api::Registry& reg = api::Registry::global();
  Generator gen(reg);
  for (const auto& entry : gen.catalog()) {
    FuzzCase c;
    c.facet = entry.facet;
    c.spec = entry.name;
    c.nproc = 3;
    c.ops_per_proc = 2;
    c.sched = api::Sched::kRoundRobin;
    c.seed = 5;
    gen.sanitize(c);
    SCOPED_TRACE(serialize_case(c));
    const CaseResult r = run_case(c);
    ASSERT_TRUE(r.ran);
    EXPECT_TRUE(r.ok) << (r.failures.empty()
                              ? std::string("?")
                              : r.failures.front().oracle + ": " +
                                    r.failures.front().detail);
  }
}

TEST(RunCase, RejectsInvalidSpecAndHostileGeometry) {
  FuzzCase c;
  c.spec = "no_such_counter";
  EXPECT_THROW(run_case(c), std::invalid_argument);

  c.spec = "lease:procs=2";
  c.nproc = 4;  // broker would abort on pid >= procs; must throw instead
  EXPECT_THROW(run_case(c), std::invalid_argument);
}

TEST(RunCase, RefusesCrashesOnHardwareAndExplorationOffTheSimulator) {
  FuzzCase c;
  c.spec = "atomic_fai";
  c.max_crashes = 1;
  EXPECT_THROW(run_case(c, nullptr, api::Backend::kHardware),
               std::invalid_argument);
  c.max_crashes = 0;
  c.work = Work::kExplore;
  EXPECT_THROW(run_case(c, nullptr, api::Backend::kHardware),
               std::invalid_argument);
  EXPECT_THROW(run_case(c, nullptr, api::Backend::kProc),
               std::invalid_argument);
}

TEST(RunCase, LeaseRenamingShedsClientsInsteadOfOverSubscribingInner) {
  // bit_batching:n=2 serves exactly two acquires ever; the broker pins one
  // inner name per client's refill, so a third client would drive the inner
  // past its request budget — a RENAMELIB_ENSURE abort, not an oracle
  // failure. The harness must shed clients (here: to zero, i.e. skip).
  FuzzCase c;
  c.facet = api::Facet::kRenaming;
  c.spec = "lease:inner=[bit_batching:n=2],procs=8";
  c.nproc = 6;
  c.ops_per_proc = 8;
  const CaseResult skipped = run_case(c);
  EXPECT_FALSE(skipped.ran);

  // With a roomy inner the same geometry runs and judges clean.
  c.spec = "lease:inner=[bit_batching:n=1024],procs=8";
  const CaseResult roomy = run_case(c);
  ASSERT_TRUE(roomy.ran);
  EXPECT_TRUE(roomy.ok) << (roomy.failures.empty()
                                ? std::string("?")
                                : roomy.failures.front().oracle + ": " +
                                      roomy.failures.front().detail);
}

// ----------------------------------------------------- harness determinism ---

TEST(Fuzzer, IdenticallySeededSessionsAreIdentical) {
  FuzzOptions o;
  o.seed = 11;
  o.iterations = 40;
  const FuzzSummary a = Fuzzer(o).run();
  const FuzzSummary b = Fuzzer(o).run();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.interesting, b.interesting);
  EXPECT_EQ(a.coverage_features, b.coverage_features);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.entries_covered, b.entries_covered);
  EXPECT_EQ(a.failures, 0) << (a.failure_notes.empty()
                                   ? std::string()
                                   : a.failure_notes.front());
  EXPECT_EQ(a.entries_covered, a.entries_total);
}

// ----------------------------------------------- injected-bug mutation check ---

// Inject a deliberately wrong invariant — "atomic_fai never hands out the
// value 0" — and require the full pipeline to respond: catch it, shrink the
// case to a near-minimal geometry, and emit a corpus file whose replay still
// fails under the injection and passes without it.
TEST(Fuzzer, InjectedOracleBugIsCaughtShrunkAndReplayable) {
  const ExtraOracle injected = [](const FuzzCase& c,
                                  const std::vector<std::uint64_t>& values) {
    if (c.facet == Facet::kCounter &&
        api::Spec::parse(c.spec).name() == "atomic_fai") {
      for (const std::uint64_t v : values) {
        if (v == 0) {
          return OracleResult::fail("injected", "atomic_fai handed out 0");
        }
      }
    }
    return OracleResult::pass("injected");
  };

  const std::string out_dir =
      (std::filesystem::temp_directory_path() /
       ("renamelib-fuzz-mutation-" + std::to_string(::getpid())))
          .string();
  FuzzOptions o;
  o.seed = 42;
  o.iterations = 25;
  o.out_dir = out_dir;
  o.shrink_budget = 60;
  o.extra_oracle = injected;
  const FuzzSummary s = Fuzzer(o).run();

  EXPECT_GE(s.failures, 1);
  ASSERT_FALSE(s.failure_files.empty());

  const FuzzCase repro = load_case_file(s.failure_files.front());
  EXPECT_NE(repro.note.find("injected"), std::string::npos) << repro.note;

  // Shrunk near-minimal: one process, one op reproduces "handed out 0".
  const CaseResult with_bug = run_case(repro, injected);
  ASSERT_TRUE(with_bug.ran);
  EXPECT_FALSE(with_bug.ok);
  EXPECT_LE(with_bug.attempted, 4u);

  // Without the injection the same case is clean — the failure was the
  // injected oracle, not the library.
  const CaseResult clean = run_case(repro);
  ASSERT_TRUE(clean.ran);
  EXPECT_TRUE(clean.ok);

  std::filesystem::remove_all(out_dir);
}

}  // namespace
}  // namespace renamelib::fuzz
