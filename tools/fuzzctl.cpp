// fuzzctl — the spec/schedule fuzzer driver.
//
// Front end for src/fuzz: generate-and-check random (spec, scenario, seed)
// cases over every registered entry, with branch-style coverage feedback
// from the simulated runtime steering mutation, greedy shrinking on oracle
// failure, and a replayable JSON corpus (docs/FUZZING.md).
//
//   fuzzctl --smoke --seed=42 [--iters=N] [--out=DIR]
//   fuzzctl --fuzz --seed=7 --iters=2000 [--out=DIR]
//   fuzzctl replay FILE...
//
// `--smoke` is the CI gate: it runs the same budget TWICE with two
// independent fuzzer instances and byte-compares the summaries — the
// simulated backend makes a fuzzing session a pure function of its seed, so
// any divergence is a determinism regression — and additionally requires
// that every Registry::describe() entry actually executed. `--fuzz` is the
// open-ended bug-hunting mode (crank --iters). `replay` re-judges committed
// corpus repros verbatim through the same run_case the fuzzer used when it
// shrank them.
//
// Exit codes: 0 clean, 1 oracle failures / nondeterminism / coverage
// shortfall / failed replay, 2 usage errors.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "args.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "obs/flight_recorder.h"

namespace {

using namespace renamelib;

int usage(std::ostream& out, int code) {
  out << "usage:\n"
         "  fuzzctl --smoke --seed=N [--iters=N] [--out=DIR]\n"
         "  fuzzctl --fuzz  --seed=N [--iters=N] [--out=DIR]\n"
         "  fuzzctl replay FILE...\n"
         "\n"
         "  --smoke   deterministic gate: runs the budget twice, compares\n"
         "            the runs byte-for-byte, and requires every registered\n"
         "            entry to have executed\n"
         "  --fuzz    one open-ended session (shrunk failures -> --out)\n"
         "  replay    re-judge corpus case files through run_case\n";
  return code;
}

using cli::Args;

/// Deterministic session report: pure function of the summary (no wall
/// clock, no paths that vary run-to-run), so --smoke can byte-compare it.
std::string summary_text(const fuzz::FuzzSummary& s) {
  std::ostringstream out;
  out << "iterations:        " << s.iterations << "\n"
      << "skipped:           " << s.skipped << "\n"
      << "interesting:       " << s.interesting << "\n"
      << "coverage features: " << s.coverage_features << "\n"
      << "entries covered:   " << s.entries_covered << "/" << s.entries_total
      << "\n"
      << "failures:          " << s.failures << "\n"
      << "fingerprint:       " << std::hex << s.fingerprint << std::dec
      << "\n";
  for (const auto& note : s.failure_notes) out << "FAIL " << note << "\n";
  return out.str();
}

fuzz::FuzzOptions options_from(Args& args, std::uint64_t default_iters) {
  fuzz::FuzzOptions o;
  o.seed = args.get_u64("seed", 1);
  o.iterations = static_cast<int>(args.get_u64("iters", default_iters));
  o.out_dir = args.get("out").value_or("");
  return o;
}

int cmd_smoke(Args& args) {
  const fuzz::FuzzOptions options = options_from(args, 200);
  args.reject_unknown();

  fuzz::Fuzzer first(options);
  const fuzz::FuzzSummary a = first.run();
  fuzz::Fuzzer second(options);
  const fuzz::FuzzSummary b = second.run();

  const std::string text = summary_text(a);
  std::cout << text;

  int rc = 0;
  if (summary_text(b) != text || a.fingerprint != b.fingerprint) {
    std::cerr << "NONDETERMINISTIC: two identically seeded runs diverged\n"
              << "--- second run ---\n"
              << summary_text(b);
    rc = 1;
  }
  if (a.entries_covered != a.entries_total) {
    std::cerr << "COVERAGE SHORTFALL: " << a.entries_covered << "/"
              << a.entries_total << " registry entries executed\n";
    rc = 1;
  }
  if (a.failures > 0) rc = 1;
  std::cout << (rc == 0 ? "SMOKE OK\n" : "SMOKE FAILED\n");
  return rc;
}

int cmd_fuzz(Args& args) {
  const fuzz::FuzzOptions options = options_from(args, 1000);
  args.reject_unknown();

  fuzz::Fuzzer fuzzer(options);
  const fuzz::FuzzSummary s = fuzzer.run();
  std::cout << summary_text(s);
  for (const auto& f : s.failure_files) {
    std::cout << "shrunk repro: " << f << "\n";
  }
  return s.failures > 0 ? 1 : 0;
}

int cmd_replay(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::cerr << "replay: no corpus files given\n";
    return 2;
  }
  int rc = 0;
  for (const auto& path : files) {
    const fuzz::FuzzCase c = fuzz::load_case_file(path);
    const fuzz::CaseResult r = fuzz::run_case(c);
    if (!r.ran) {
      std::cout << "SKIP " << path << " (geometry cannot run)\n";
      continue;
    }
    if (r.ok) {
      std::cout << "PASS " << path << " (spec=" << c.spec << ")\n";
      continue;
    }
    rc = 1;
    std::cout << "FAIL " << path << " (spec=" << c.spec << ")\n";
    for (const auto& f : r.failures) {
      std::cout << "     " << f.oracle << ": " << f.detail << "\n";
    }
    // Post-mortem: run_case keeps the flight recorder on for the execution,
    // so its tail is the last events leading into the oracle failure.
    std::cout << obs::FlightRecorder::instance().format_tail();
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Force registry construction early so a registration bug is a clean
    // error, not a mid-session surprise.
    (void)api::Registry::global().describe();

    int from = 1;
    const bool replay =
        argc > 1 && std::string(argv[1]) == "replay" ? (from = 2, true)
                                                     : false;
    Args args(argc, argv, from);
    if (args.flag("help")) return usage(std::cout, 0);
    if (replay) {
      args.reject_unknown();
      return cmd_replay(args.positional());
    }
    if (args.flag("smoke")) return cmd_smoke(args);
    if (args.flag("fuzz")) return cmd_fuzz(args);
    return usage(std::cerr, 2);
  } catch (const std::invalid_argument& e) {
    std::cerr << "fuzzctl: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "fuzzctl: " << e.what() << "\n";
    return 1;
  }
}
