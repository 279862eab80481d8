// renamectl — the registry driver CLI.
//
// One binary to explore and exercise everything the registry knows: list
// the facet catalogs, dump the typed option schemas (the same
// Registry::describe() data docs/SPEC_GRAMMAR.md's tables are rendered
// from), run one-off Workload scenarios that emit the standard
// machine-readable BenchReport (schema renamelib.bench_report.v1) for
// bench_compare.py, and print the paper-claims ledger.
//
//   renamectl list [--facet=counter|renaming|readable]
//   renamectl describe [NAME] [--facet=...]
//   renamectl events                      # the instrumentation-site catalog
//   renamectl claims                      # the paper-claims ledger
//   renamectl run --facet=counter --spec=striped:stripes=16 --threads=8
//                 --ops=1000 --backend=hardware --json=-
//   renamectl run --smoke --json=FILE     # deterministic all-entries matrix
//   renamectl run --spec=... --events     # + per-site event counts/rates
//
// `claims` takes no flags; tools/claims.cpp documents the ledger.
//
// `run` executes the facet's standard workload (counters: next(); renamings:
// hold-all acquires; readables: a 2:1 increment/read mix) under the chosen
// backend and emits one report run with the *canonical* spec string.
// `run --smoke` without --spec sweeps every registered entry of every facet
// at defaults on the simulated backend — fully deterministic (seeded
// adversary, step-count latencies), which is what makes the stored
// bench/baselines/smoke.json comparable across machines and commits.
//
// Exit codes: 0 success, 1 validation failure inside a run or a failed
// claims check, 2 usage or spec errors (unknown names/keys surface the
// registry's did-you-mean messages).
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/report.h"
#include "api/spec.h"
#include "api/workload.h"
#include "args.h"
#include "claims.h"
#include "obs/event_bus.h"
#include "obs/sites.h"
#include "stats/latency_snapshot.h"

namespace {

using namespace renamelib;

int usage(std::ostream& out, int code) {
  out << "usage:\n"
         "  renamectl list [--facet=counter|renaming|readable]\n"
         "  renamectl describe [NAME] [--facet=...]\n"
         "  renamectl events\n"
         "  renamectl claims\n"
         "  renamectl run [--facet=F --spec=S] [--threads=N] [--ops=N]\n"
         "                [--backend=simulated|hardware|proc]\n"
         "                [--sched=random|roundrobin|obstruction]\n"
         "                [--seed=N] [--crashes=N] [--name=LABEL]\n"
         "                [--json=FILE|-] [--smoke] [--events]\n"
         "\n"
         "  list      entry catalog per facet (name, family, guarantees)\n"
         "  describe  typed option schemas (key, type, default, doc)\n"
         "  events    the instrumentation-site catalog (obs/sites.h): the\n"
         "            names --events tables and report 'events' keys use\n"
         "  claims    the paper-claims ledger: per claim a simulated sweep,\n"
         "            a growth fit and a verdict; exits 1 if a check fails\n"
         "  run       one Workload scenario -> BenchReport JSON; --smoke\n"
         "            without --spec runs the deterministic all-entries\n"
         "            simulated matrix (the stored baseline's generator);\n"
         "            --events records per-site event counts on the obs\n"
         "            event bus and attaches them to the report runs;\n"
         "            --backend=proc forks --threads OS processes over a\n"
         "            shared-memory arena (the parent folds the survivors'\n"
         "            mailboxes; --crashes=N SIGKILLs N workers mid-run)\n";
  return code;
}

using cli::Args;

std::vector<api::Facet> facets_from(Args& args) {
  const auto facet = args.get("facet");
  if (facet.has_value()) return {api::facet_from_name(*facet)};
  return {api::Facet::kCounter, api::Facet::kRenaming, api::Facet::kReadable};
}

// ---------------------------------------------------------------- list ---

std::string guarantees(const api::EntryDescription& e) {
  if (e.facet != api::Facet::kRenaming) return e.consistency;
  std::string out = e.adaptive ? "adaptive" : "non-adaptive";
  if (e.reusable) out += ", reusable";
  return out;
}

int cmd_list(Args& args) {
  const auto facets = facets_from(args);
  args.reject_unknown();
  for (const api::Facet facet : facets) {
    std::cout << "facet " << api::facet_name(facet) << ":\n";
    for (const auto& e : api::Registry::global().describe(facet)) {
      std::string line = "  " + e.name;
      line.append(line.size() < 20 ? 20 - line.size() : 1, ' ');
      line += std::string(api::family_name(e.family)) + " | " + guarantees(e);
      std::cout << line << "\n      " << e.summary << "\n";
    }
  }
  return 0;
}

// ------------------------------------------------------------ describe ---

void describe_entry(const api::EntryDescription& e) {
  std::cout << api::facet_name(e.facet) << " '" << e.name << "' ("
            << api::family_name(e.family) << ", " << guarantees(e) << ")\n"
            << "  " << e.summary << "\n";
  if (e.options.empty()) {
    std::cout << "  options: none\n";
    return;
  }
  std::cout << "  options:\n";
  for (const auto& o : e.options) {
    std::cout << "    " << o.key << " = " << o.def << "  [" << o.type_text()
              << "]\n        " << o.doc << "\n";
  }
}

int cmd_describe(Args& args) {
  const auto facets = facets_from(args);
  const auto& names = args.positional();
  args.reject_unknown();
  if (names.empty()) {
    for (const api::Facet facet : facets) {
      for (const auto& e : api::Registry::global().describe(facet)) {
        describe_entry(e);
      }
    }
    return 0;
  }
  for (const auto& name : names) {
    bool found = false;
    std::string first_error;
    for (const api::Facet facet : facets) {
      try {
        describe_entry(api::Registry::global().describe(facet, name));
        found = true;
      } catch (const std::invalid_argument& e) {
        if (first_error.empty()) first_error = e.what();
      }
    }
    if (!found) throw std::invalid_argument(first_error);
  }
  return 0;
}

// -------------------------------------------------------------- events ---

int cmd_events(Args& args) {
  args.reject_unknown();
  std::cout << "instrumentation sites (report 'events' keys; see "
               "src/obs/sites.h):\n";
  for (std::size_t i = 1; i < obs::kSiteCount; ++i) {
    const auto site = static_cast<obs::Site>(i);
    // Reserved ids (retired sites) have no name; skip them.
    if (std::strcmp(obs::site_name(site), "unknown") == 0) continue;
    std::string line = "  " + std::string(obs::site_name(site));
    line.append(line.size() < 22 ? 22 - line.size() : 1, ' ');
    std::cout << line << obs::site_doc(site) << "\n";
  }
  return 0;
}

// ----------------------------------------------------------------- run ---

/// The --events human table: per-site counts and per-op rates of one run.
void print_events_table(std::ostream& out, const api::Run& run) {
  const auto sites = run.events.nonzero();
  if (sites.empty()) {
    out << "  events: none recorded\n";
    return;
  }
  const double ops = run.metrics.ops > 0
                         ? static_cast<double>(run.metrics.ops)
                         : 1.0;
  for (const auto& [site, count] : sites) {
    std::string line = "  " + std::string(obs::site_name(site));
    line.append(line.size() < 22 ? 22 - line.size() : 1, ' ');
    out << line << count << " (" << static_cast<double>(count) / ops
        << "/op)\n";
  }
}

/// Pre-flight for one-shot renamings: a hold-all run must fit the entry's
/// declared request budget, or the scenario would hang/overflow by design.
void check_renaming_budget(const api::Spec& spec, const api::Scenario& s) {
  const api::RenamingInfo* info =
      api::Registry::global().find_renaming(spec.name());
  const std::uint64_t attempted =
      static_cast<std::uint64_t>(s.nproc) * static_cast<std::uint64_t>(s.ops_per_proc);
  const std::uint64_t budget =
      static_cast<std::uint64_t>(info->max_requests(spec));
  if (attempted > budget) {
    throw std::invalid_argument(
        "scenario attempts " + std::to_string(attempted) + " acquires but '" +
        spec.print() + "' supports at most " + std::to_string(budget) +
        (info->reusable ? " concurrent holders" : " total requests") +
        " — lower --threads/--ops or raise the capacity option");
  }
}

api::Run run_one(api::Facet facet, const std::string& canonical,
                 const api::Scenario& s) {
  if (facet == api::Facet::kRenaming) {
    check_renaming_budget(api::Spec::parse(canonical), s);
  }
  return api::Workload::run_facet_spec(facet, canonical, s);
}

/// Default per-process op count per facet (matches the conformance suite's
/// proportions; readables need a multiple of 3 for a full inc/inc/read mix).
int default_ops(api::Facet facet) {
  switch (facet) {
    case api::Facet::kCounter: return 4;
    case api::Facet::kRenaming: return 2;
    case api::Facet::kReadable: return 6;
  }
  return 4;
}

int cmd_run(Args& args) {
  api::Scenario s;
  const std::uint64_t threads = args.get_u64("threads", 4);
  if (threads < 1 || threads > 4096) {
    throw std::invalid_argument("--threads must be in [1, 4096]");
  }
  s.nproc = static_cast<int>(threads);
  const auto backend = args.get("backend").value_or("simulated");
  if (backend == "hardware" || backend == "hw") {
    s.backend = api::Backend::kHardware;
  } else if (backend == "simulated" || backend == "sim") {
    s.backend = api::Backend::kSimulated;
  } else if (backend == "proc") {
    s.backend = api::Backend::kProc;
  } else {
    throw std::invalid_argument(
        "--backend must be simulated, hardware, or proc");
  }
  const auto sched = args.get("sched").value_or("random");
  if (sched == "roundrobin") {
    s.sched = api::Sched::kRoundRobin;
  } else if (sched == "obstruction") {
    s.sched = api::Sched::kObstruction;
  } else if (sched != "random") {
    throw std::invalid_argument(
        "--sched must be random, roundrobin, or obstruction");
  }
  s.seed = args.get_u64("seed", 1);
  s.crashes.max_crashes =
      static_cast<std::size_t>(args.get_u64("crashes", 0));
  if (s.crashes.enabled() && s.backend == api::Backend::kHardware) {
    throw std::invalid_argument(
        "--crashes requires --backend=simulated or proc (a hardware thread "
        "cannot be killed mid-protocol; a forked process can)");
  }
  const bool smoke = args.flag("smoke");
  const auto spec_arg = args.get("spec");
  const auto facet_arg = args.get("facet");
  const std::string label =
      args.get("name").value_or(smoke && !spec_arg ? "smoke" : "run");
  const auto json = args.get("json");
  if (json.has_value() && json->empty()) {
    // Argument-shape error: fail before any workload runs, not after.
    throw std::invalid_argument("--json needs a file path or '-'");
  }
  const bool ops_given = args.flag("ops");
  const std::uint64_t default_opcount = spec_arg && !smoke ? 64 : 0;
  std::uint64_t ops = args.get_u64("ops", default_opcount);
  if (ops_given && (ops < 1 || ops > (1u << 30))) {
    throw std::invalid_argument("--ops must be in [1, 2^30] per process");
  }
  const bool events = args.flag("events");
  args.reject_unknown();
  // Opt-in event recording: off, the obs hooks cost one relaxed load +
  // branch and reports keep their exact pre-events byte form (which is what
  // keeps the stored smoke baseline comparable).
  if (events) obs::EventBus::set_enabled(true);

  api::BenchReport report;
  report.bench = "renamectl";
  auto& reg = api::Registry::global();

  if (spec_arg.has_value()) {
    // One explicit scenario. canonical() validates against the schema, so a
    // typo fails here with the registry's did-you-mean before anything runs.
    const api::Facet facet = api::facet_from_name(facet_arg.value_or("counter"));
    const std::string canonical = reg.canonical(facet, *spec_arg);
    s.ops_per_proc = static_cast<int>(ops != 0 ? ops : default_ops(facet));
    const api::Run run = run_one(facet, canonical, s);
    report.runs.push_back(api::report_run(label, canonical, s, run));
    std::ostream& human = json == "-" ? std::cerr : std::cout;
    human << api::facet_name(facet) << " " << canonical << ": "
          << run.metrics.ops << " ops, mean " << run.metrics.mean_op_steps()
          << " steps/op";
    if (s.backend != api::Backend::kSimulated) {
      human << ", " << run.metrics.ops_per_sec() << " ops/sec, p99 "
            << run.latency.percentile(0.99) << " ns";
    }
    if (s.backend == api::Backend::kProc) {
      human << ", " << run.finished_procs << " procs finished";
      if (run.crashed_procs > 0) {
        human << " (" << run.crashed_procs << " killed)";
      }
    }
    human << "\n";
    // On the proc backend both the metrics above and this table are the
    // parent's fold of the survivors' mailboxes.
    if (events) print_events_table(human, run);
  } else {
    if (!smoke) {
      throw std::invalid_argument(
          "run needs --spec=... (one scenario) or --smoke (all-entries "
          "matrix)");
    }
    if (facet_arg.has_value() || s.backend != api::Backend::kSimulated) {
      throw std::invalid_argument(
          "the --smoke matrix is the deterministic simulated all-facets "
          "sweep; combine --smoke with --spec to shrink one scenario "
          "instead");
    }
    // The deterministic baseline matrix: every entry of every facet at its
    // default spec, simulated backend, fixed scenario — step counts depend
    // only on (seed, entry), so two runs of the same code produce identical
    // reports and bench/baselines/smoke.json stays comparable anywhere.
    obs::EventSnapshot matrix_events;
    api::Run matrix_totals;
    for (const api::Facet facet :
         {api::Facet::kCounter, api::Facet::kRenaming, api::Facet::kReadable}) {
      for (const auto& name : reg.list(facet)) {
        api::Scenario entry_s = s;
        entry_s.ops_per_proc =
            static_cast<int>(ops != 0 ? ops : default_ops(facet));
        const api::Run run = run_one(facet, name, entry_s);
        matrix_events.merge(run.events);
        matrix_totals.metrics.ops += run.metrics.ops;
        // The run name carries the facet: entries registered under several
        // facets (striped, the countnets) share spec/backend/threads/unit,
        // and bench_compare disambiguates such colliding configurations by
        // name — without this, removing one facet's entry would silently
        // re-pair the other against the wrong baseline row.
        report.runs.push_back(api::report_run(
            label + "/" + api::facet_name(facet), name, entry_s, run));
      }
    }
    // Coverage oracle: the matrix must touch 100% of the catalog. An entry
    // that registers but never runs here would drift out of the baseline
    // (and out of CI's regression net) silently — fail loudly instead.
    const std::size_t catalog = reg.describe().size();
    if (report.runs.size() != catalog) {
      throw std::runtime_error(
          "smoke matrix covered " + std::to_string(report.runs.size()) +
          " runs but the registry describes " + std::to_string(catalog) +
          " entries — a facet table is missing from the sweep");
    }
    std::ostream& human = json == "-" ? std::cerr : std::cout;
    human << "smoke matrix: " << report.runs.size() << " runs ("
          << s.nproc << " procs, simulated; covers " << catalog << "/"
          << catalog << " registry entries)\n";
    if (events) {
      matrix_totals.events = matrix_events;
      print_events_table(human, matrix_totals);
    }
  }

  if (json.has_value()) {
    if (*json == "-") {
      std::cout << report.to_json();
    } else {
      report.write_file(*json);
      std::ostream& human = std::cout;
      human << "wrote bench report: " << *json << " (" << report.runs.size()
            << " runs)\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    return usage(std::cout, 0);
  }
  Args args(argc, argv, 2);
  try {
    if (cmd == "list") return cmd_list(args);
    if (cmd == "describe") return cmd_describe(args);
    if (cmd == "events") return cmd_events(args);
    if (cmd == "claims") {
      args.reject_unknown();
      if (!args.positional().empty()) return usage(std::cerr, 2);
      return renamelib::tools::run_claims(std::cout);
    }
    if (cmd == "run") return cmd_run(args);
    std::cerr << "unknown command '" << cmd << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::invalid_argument& e) {
    std::cerr << "renamectl: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "renamectl: " << e.what() << "\n";
    return 1;
  }
}
