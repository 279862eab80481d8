// The paper-claims ledger: `renamectl claims`.
//
// One fixed preset walks the paper's claims in section order. Every run is
// on the simulated backend with a fixed seed, so two runs print the same
// bytes and no OS thread beyond main is started. For each claim the ledger
// prints its sweep tables, a stats::fit_growth line per fitted series and a
// one-line verdict naming the bound the paper claims. The fitted shape is
// reported, not gated: small-k step curves are noisy and the constructible
// Batcher base adds a log factor. The checks (tight names, sorting networks,
// winner counts, dense counter values, ...) gate the exit code: any failure
// makes `renamectl claims` exit 1.
//
// Sweeps stop at k = 512, and at k = 256 for adaptive renaming with
// randomized comparators: the simulator's cost per step grows with k, so
// larger points cost seconds each. Wall-clock time is perfbench's job, not
// the ledger's.
#include "claims.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "adaptive/adaptive_network.h"
#include "adaptive/sandwich.h"
#include "api/registry.h"
#include "api/workload.h"
#include "counting/baselines.h"
#include "counting/l_test_and_set.h"
#include "counting/monotone_counter.h"
#include "renaming/adaptive_strong.h"
#include "renaming/bit_batching.h"
#include "renaming/long_lived.h"
#include "renaming/renaming_network.h"
#include "renaming/validate.h"
#include "sortnet/aks_model.h"
#include "sortnet/bitonic.h"
#include "sortnet/odd_even_merge.h"
#include "sortnet/optimal_small.h"
#include "sortnet/pairwise.h"
#include "sortnet/verify.h"
#include "stats/fit.h"
#include "stats/latency_snapshot.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "tas/hardware_tas.h"
#include "tas/rat_race_tas.h"
#include "tas/two_process_tas.h"
#include "wakeup/wakeup.h"

namespace renamelib::tools {
namespace {

using stats::Table;
using U64 = std::uint64_t;
using Points = std::vector<std::pair<double, double>>;  ///< (x, y) of a fit

std::string num(double v, int precision = 2) {
  return Table::num(v, precision);
}

std::string str(U64 v) { return std::to_string(v); }

/// Checks and fits of the claim being walked.
struct Ledger {
  std::ostream& out;
  int checks = 0;
  int failed = 0;
  stats::GrowthFit verdict_fit{};  ///< the claim's first fit

  /// A gated check of the property `what` states: a failure is printed and
  /// makes the ledger exit 1.
  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failed;
      out << "CHECK FAILED: " << what << "\n";
    }
  }

  /// check() for a renaming's names: unique and exactly within 1..bound.
  void tight(const std::vector<U64>& names, U64 bound,
             const std::string& where) {
    const auto result = renaming::check_tight(names, bound);
    check(result.ok, where + ": " + result.error);
  }

  void table(const std::string& title, const Table& t) {
    out << "\n" << title << "\n";
    t.print(out);
  }

  /// Prints the growth fit of one series; the claim's first fit is the one
  /// its verdict judges.
  void fit(const std::string& series, const Points& points) {
    std::vector<double> x, y;
    for (const auto& [a, b] : points) {
      x.push_back(a);
      y.push_back(b);
    }
    const auto f = stats::fit_growth(x, y);
    out << "fit " << series << ": " << f.model << " (constant "
        << num(f.constant) << ", R^2 " << num(f.r2, 3) << ")\n";
    if (verdict_fit.model.empty()) verdict_fit = f;
  }
};

/// One row of the ledger.
struct Claim {
  const char* section;
  const char* bound;  ///< the bound the paper claims, as the verdict names it
  double exponent;    ///< the claimed shape as a power of log k
  bool lower;         ///< an Omega bound: the fit must not be flatter
  void (*run)(Ledger&);
};

double exponent_of(const std::string& model) {
  if (model == "linear") return 1e9;
  if (model == "log") return 1;
  return std::stod(model.substr(4));  // "log^2.5"
}

/// k processes, `ops` operations each, on Scenario's default backend: the
/// simulator.
api::Scenario sim(int k, int ops, U64 seed) {
  return {.nproc = k, .ops_per_proc = ops, .crashes = {}, .seed = seed};
}

/// Per-process steps of one simulated run of `body` by k processes.
std::vector<double> sim_steps(int k, U64 seed,
                              const std::function<void(Ctx&)>& body) {
  return api::Workload(sim(k, 1, seed)).run_body(body).proc_steps;
}

double lg(double x) { return std::log2(x); }

// ------------------------------------------------------------- Sec. 2 ---

void tas_substrate(Ledger& L) {
  std::vector<double> winner, loser, all;
  bool one_winner = true;
  for (U64 run = 0; run < 400; ++run) {
    tas::TwoProcessTas t;
    int won[2] = {0, 0};
    const auto steps = sim_steps(2, run + 1, [&](Ctx& ctx) {
      won[ctx.pid()] = t.compete(ctx, ctx.pid()) ? 1 : 0;
    });
    one_winner &= won[0] + won[1] == 1;
    for (int p = 0; p < 2; ++p) (won[p] ? winner : loser).push_back(steps[p]);
    all.insert(all.end(), steps.begin(), steps.end());
  }
  L.check(one_winner, "every contended two-process TAS has one winner");
  Table pairs({"role", "mean", "p50", "p90", "p99", "max"});
  for (const auto& [role, v] : {std::pair{"winner", &winner},
                                std::pair{"loser", &loser},
                                std::pair{"all", &all}}) {
    const auto s = stats::summarize(*v);
    pairs.add_row({role, num(s.mean), num(s.p50), num(s.p90), num(s.p99),
                   num(s.max, 0)});
  }
  L.table("Two-process TAS, 400 contended pairs: steps per process", pairs);

  Table ratrace({"k", "mean steps", "p99 steps", "max steps", "mean/log^2 k"});
  Points curve;
  for (int k = 2; k <= 128; k *= 2) {
    std::vector<double> steps;
    for (U64 run = 0; run < 5; ++run) {
      tas::RatRaceTas t;
      std::vector<int> won(k, 0);
      const auto s = sim_steps(k, run * 1000 + k, [&](Ctx& ctx) {
        won[ctx.pid()] = t.test_and_set(ctx) ? 1 : 0;
      });
      L.check(std::count(won.begin(), won.end(), 1) == 1,
              "RatRace k=" + str(k) + " has one winner");
      steps.insert(steps.end(), s.begin(), s.end());
    }
    const auto s = stats::summarize(steps);
    ratrace.add_row({str(k), num(s.mean), num(s.p99), num(s.max, 0),
                     num(s.mean / (lg(k + 1) * lg(k + 1)), 3)});
    curve.emplace_back(k, s.mean);
  }
  L.table("RatRace adaptive TAS, 5 runs per k", ratrace);
  L.fit("RatRace mean steps vs k", curve);

  tas::HardwareTas hw;
  Ctx ctx(0, 1);
  (void)hw.test_and_set(ctx);
  L.out << "hardware TAS: " << ctx.steps() << " step per test_and_set\n";
  L.check(ctx.steps() == 1, "hardware TAS costs one step");
}

// ------------------------------------------------------------- Sec. 4 ---

void bit_batching(Ledger& L) {
  Table layout({"n", "batches", "sizes (first..last)"});
  for (U64 n : {64, 256, 1024, 4096}) {
    renaming::BitBatching bb(n, renaming::SlotTasKind::kHardware);
    std::string sizes;
    for (std::size_t i = 1; i <= bb.batch_count(); ++i) {
      if (!sizes.empty()) sizes += ", ";
      sizes += str(bb.batch_end(i) - bb.batch_begin(i));
    }
    layout.add_row({str(n), str(bb.batch_count()), sizes});
  }
  L.table("Fig. 1 batch layout", layout);

  Table probes({"n=k", "mean probes", "p99 probes", "max", "stage2",
                "probes/log^2 n", "total TAS ops", "total/(n log n)"});
  Points curve;
  for (U64 n = 16; n <= 512; n *= 2) {
    const int k = static_cast<int>(n);
    renaming::BitBatching bb(n, renaming::SlotTasKind::kHardware);
    std::vector<renaming::BitBatching::Outcome> outs(k);
    sim_steps(k, n, [&](Ctx& ctx) { outs[ctx.pid()] = bb.rename_instrumented(ctx); });
    std::vector<double> p;
    std::vector<U64> names;
    int stage2 = 0;
    for (const auto& o : outs) {
      p.push_back(static_cast<double>(o.probes));
      names.push_back(o.name);
      stage2 += o.entered_stage2 ? 1 : 0;
    }
    L.tight(names, n, "BitBatching n=" + str(n));
    const auto s = stats::summarize(p);
    const double total = s.mean * k;
    probes.add_row({str(n), num(s.mean), num(s.p99), num(s.max, 0),
                    str(stage2), num(s.mean / (lg(n) * lg(n)), 3),
                    num(total, 0), num(total / (n * lg(n)), 3)});
    curve.emplace_back(n, s.mean);
  }
  L.table("Lemma 1 / Cor. 1-2: TAS probes per process, unit-cost slots",
          probes);
  L.fit("mean probes vs n", curve);

  Table slots({"n=k", "mean steps", "p99 steps", "max steps",
               "steps/log^3 n"});
  for (U64 n : {16, 32, 64}) {
    const int k = static_cast<int>(n);
    renaming::BitBatching bb(n, renaming::SlotTasKind::kRatRace);
    std::vector<U64> names(k);
    const auto steps = sim_steps(k, n + 1, [&](Ctx& ctx) {
      names[ctx.pid()] = bb.rename(ctx, 0);
    });
    L.tight(names, n, "BitBatching RatRace slots n=" + str(n));
    const auto s = stats::summarize(steps);
    slots.add_row({str(n), num(s.mean), num(s.p99), num(s.max, 0),
                   num(s.mean / (lg(n) * lg(n) * lg(n)), 3)});
  }
  L.table("Cor. 1 with RatRace slots: steps per process", slots);
}

// ------------------------------------------------------------- Sec. 5 ---

void renaming_network(Ledger& L) {
  sortnet::AksModel aks;
  Table depths({"M", "Batcher depth", "Batcher size", "AKS model depth"});
  for (std::size_t m : {8, 16, 64, 256, 1024}) {
    const auto net = sortnet::odd_even_merge_sort(m);
    depths.add_row({str(m), str(net.depth()), str(net.size()),
                    num(aks.depth(m), 0)});
  }
  L.table("Cor. 3: renaming cost is network depth; Batcher vs AKS", depths);

  // k processes on distinct ports spread over 1..M.
  struct Config {
    std::size_t m;
    int k;
    renaming::ComparatorKind kind;
  };
  constexpr auto kRnd = renaming::ComparatorKind::kRandomized;
  constexpr auto kHw = renaming::ComparatorKind::kHardware;
  Table costs({"comparators", "M", "k", "depth", "mean comps", "max comps",
               "mean steps", "p99 steps"});
  Points curve;
  for (const Config c : {Config{16, 4, kRnd}, Config{16, 16, kRnd},
                         Config{64, 8, kRnd}, Config{64, 64, kRnd},
                         Config{256, 32, kRnd}, Config{256, 128, kRnd},
                         Config{64, 32, kHw}, Config{256, 128, kHw},
                         Config{1024, 512, kHw}}) {
    const auto base = sortnet::odd_even_merge_sort(c.m);
    renaming::RenamingNetwork net(base, c.kind);
    std::vector<renaming::RenamingNetwork::Routed> routed(c.k);
    const auto steps = sim_steps(c.k, c.m * 31 + c.k, [&](Ctx& ctx) {
      const U64 port = 1 + static_cast<U64>(ctx.pid()) * (c.m / c.k);
      routed[ctx.pid()] = net.rename_counted(ctx, port);
    });
    std::vector<double> comps;
    std::vector<U64> names;
    for (const auto& r : routed) {
      comps.push_back(static_cast<double>(r.comparators));
      names.push_back(r.name);
    }
    const std::string where = "renaming network M=" + str(c.m) +
                              " k=" + str(c.k);
    L.tight(names, c.k, where);
    const auto cs = stats::summarize(comps);
    L.check(cs.max <= static_cast<double>(base.depth()),
            where + ": no path is longer than the depth");
    const auto ss = stats::summarize(steps);
    costs.add_row({c.kind == kRnd ? "randomized" : "unit-cost", str(c.m),
                   str(c.k), str(base.depth()), num(cs.mean), num(cs.max, 0),
                   num(ss.mean), num(ss.p99)});
    if (c.kind == kHw) curve.emplace_back(c.m, ss.mean);
  }
  L.table("Thm. 1 / Cor. 3: width-M Batcher renaming network", costs);
  L.fit("unit-cost mean steps vs M", curve);
}

// ----------------------------------------------------------- Sec. 6.1 ---

void adaptive_network(Ledger& L) {
  using adaptive::StageGeometry;
  adaptive::AdaptiveNetwork geometry_net;
  Table geometry({"stage j", "w_j", "l_j", "m_j (A/C width)",
                  "A_j phases (Batcher)"});
  for (int j = 1; j <= StageGeometry::kMaxStage; ++j) {
    geometry.add_row({str(j), str(StageGeometry::width(j)),
                      str(StageGeometry::ell(j)),
                      str(StageGeometry::sandwich_width(j)),
                      str(geometry_net.wing(j).phase_count())});
  }
  L.table("Fig. 2 geometry: w_j = w_{j-1}^2, l_j = w_{j-1}/2, m_j = w_j - l_j",
          geometry);

  Table verified({"stage", "width", "size", "depth", "sorts"});
  for (int j = 0; j <= 3; ++j) {
    const auto net = adaptive::materialize_stage(j);
    const bool ok = net.width() <= 16
                        ? sortnet::is_sorting_network_exhaustive(net)
                        : sortnet::is_sorting_network_randomized(net, 3000, 2024);
    L.check(ok, "materialized stage " + str(j) + " sorts");
    verified.add_row({str(j), str(net.width()), str(net.size()),
                      str(net.depth()), ok ? "yes" : "NO"});
  }
  L.table("Lemma 2 / Thm. 2: stages are sorting networks (0-1 principle: "
          "exhaustive to width 16, else 3000 random vectors)",
          verified);

  // Sequential arrivals on geometrically sampled ports with first-arrival
  // comparators: the i-th arrival must exit at port i.
  Table traversal({"max port", "mean comps", "max comps", "max/log^2(port)"});
  Points curve;
  for (U64 kmax : {4, 16, 64, 256, 1024, 8192, 65536}) {
    adaptive::AdaptiveNetwork net;
    std::set<adaptive::CompRef> taken;
    std::vector<double> lens;
    bool in_order = true;
    U64 arrival = 0;
    for (U64 port = 1; port <= kmax; port = port < 16 ? port + 1 : port * 2) {
      U64 met = 0;
      const U64 out = net.route(port, [&](const adaptive::CompRef& c, bool) {
        ++met;
        return taken.insert(c).second;
      });
      in_order &= out == ++arrival;
      lens.push_back(static_cast<double>(met));
    }
    L.check(in_order, "arrival i exits at port i, max port " + str(kmax));
    const auto s = stats::summarize(lens);
    traversal.add_row({str(kmax), num(s.mean), num(s.max, 0),
                       num(s.max / (lg(kmax) * lg(kmax)), 3)});
    curve.emplace_back(kmax, s.max);
  }
  L.table("Thm. 2: comparators per traversal vs entry port (lazy walk)",
          traversal);
  L.fit("max comparators vs max port", curve);

  Table space({"entry port", "comparators touched", "exit port"});
  for (U64 port : {1ull << 4, 1ull << 10, 1ull << 16, 1ull << 20,
                   1ull << 28}) {
    adaptive::AdaptiveNetwork net;
    U64 met = 0;
    const U64 out = net.route(port, [&](const adaptive::CompRef&, bool) {
      ++met;
      return true;
    });
    space.add_row({str(port), str(met), str(out)});
  }
  L.table("Adaptivity of space: comparators materialized on demand", space);
}

// ----------------------------------------------------------- Sec. 6.2 ---

void adaptive_renaming(Ledger& L) {
  Table costs({"k", "mean steps", "p99 steps", "max steps", "mean comps",
               "max temp name", "steps/log^2 k"});
  Points curve;
  for (int k = 2; k <= 256; k *= 2) {
    renaming::AdaptiveStrongRenaming renaming;
    std::vector<renaming::AdaptiveStrongRenaming::Outcome> outs(k);
    const auto steps = sim_steps(k, k, [&](Ctx& ctx) {
      const U64 id = 0x9e3779b97f4a7c15ULL * (static_cast<U64>(ctx.pid()) + 1);
      outs[ctx.pid()] = renaming.rename_instrumented(ctx, id);
    });
    std::vector<U64> names;
    std::vector<double> comps;
    U64 max_temp = 0;
    for (const auto& o : outs) {
      names.push_back(o.name);
      comps.push_back(static_cast<double>(o.comparators));
      max_temp = std::max(max_temp, o.temp_name);
    }
    L.tight(names, k, "adaptive renaming k=" + str(k));
    const auto s = stats::summarize(steps);
    costs.add_row({str(k), num(s.mean), num(s.p99), num(s.max, 0),
                   num(stats::summarize(comps).mean), str(max_temp),
                   num(s.mean / (lg(k + 1) * lg(k + 1)), 3)});
    curve.emplace_back(k, s.mean);
  }
  L.table("Thm. 3: randomized comparators, unbounded initial ids", costs);
  L.fit("mean steps vs k", curve);

  renaming::AdaptiveStrongRenaming::Options unit;
  unit.comparators = renaming::AdaptiveComparatorKind::kHardware;
  Table det({"k", "mean steps", "max steps"});
  for (int k : {8, 64, 256}) {
    renaming::AdaptiveStrongRenaming renaming(unit);
    std::vector<U64> names(k);
    const auto steps = sim_steps(k, k * 3 + 1, [&](Ctx& ctx) {
      names[ctx.pid()] = renaming.rename(ctx, ctx.pid() + 1);
    });
    L.tight(names, k, "unit-cost adaptive renaming k=" + str(k));
    const auto s = stats::summarize(steps);
    det.add_row({str(k), num(s.mean), num(s.max, 0)});
  }
  L.table("Sec. 1: deterministic adaptive renaming, unit-cost comparators",
          det);
}

// ------------------------------------------------------------- Sec. 7 ---

void lower_bound(Ledger& L) {
  Table table({"k", "bound c*log2 k", "wakeup mean steps",
               "renaming mean steps", "renaming/bound"});
  Points curve;
  for (int k = 2; k <= 64; k *= 2) {
    const double bound = wakeup::step_lower_bound(1.0, static_cast<U64>(k));
    std::vector<double> wake_steps, rename_steps;
    for (U64 run = 0; run < 5; ++run) {
      wakeup::WakeupFromRenaming wk(static_cast<U64>(k));
      const auto w = sim_steps(k, run * 100 + k, [&](Ctx& ctx) {
        (void)wk.wake(ctx, ctx.pid() + 1);
      });
      wake_steps.insert(wake_steps.end(), w.begin(), w.end());
      renaming::AdaptiveStrongRenaming renaming;
      const auto r = sim_steps(k, run * 37 + k + 5, [&](Ctx& ctx) {
        (void)renaming.rename(ctx, ctx.pid() + 1);
      });
      rename_steps.insert(rename_steps.end(), r.begin(), r.end());
    }
    const double rename_mean = stats::summarize(rename_steps).mean;
    L.check(rename_mean >= bound,
            "renaming at k=" + str(k) + " costs at least c*log2 k");
    table.add_row({str(k), num(bound), num(stats::summarize(wake_steps).mean),
                   num(rename_mean), num(rename_mean / bound)});
    curve.emplace_back(k, rename_mean);
  }
  L.table("Thm. 5: measured cost (5 runs per k, c = 1) against the bound",
          table);
  L.fit("renaming mean steps vs k", curve);

  Table fai({"k", "c=1.0", "c=0.5", "c=0.1"});
  for (U64 k : {2, 8, 64, 1024}) {
    fai.add_row({str(k), num(wakeup::step_lower_bound(1.0, k)),
                 num(wakeup::step_lower_bound(0.5, k)),
                 num(wakeup::step_lower_bound(0.1, k))});
  }
  L.table("Cor. 4: the fetch-and-increment bound per k and c", fai);
}

// ----------------------------------------------------------- Sec. 8.1 ---

/// Mean steps per increment of k processes doing `per` increments each.
template <typename Counter>
double mean_increment(Counter& counter, int k, int per, U64 seed) {
  return api::Workload(sim(k, per, seed))
      .run_ops([&](Ctx& ctx) {
        counter.increment(ctx);
        return 0ULL;
      })
      .metrics.mean_op_steps();
}

void monotone_counter(Ledger& L) {
  Table inc({"k", "total v", "mean inc steps", "p99 inc steps",
             "steps/log2 v", "final read"});
  Points curve;
  for (int k = 2; k <= 32; k *= 2) {
    const int per = 6;
    counting::MonotoneCounter counter;
    const auto run = api::Workload(sim(k, per, k * 11 + 3)).run_ops([&](Ctx& ctx) {
      counter.increment(ctx);
      return 0ULL;
    });
    const U64 v = static_cast<U64>(k) * per;
    Ctx reader(k, 4242);
    const U64 settled = counter.read(reader);
    L.check(settled == v, "the counter settles at v=" + str(v));
    const auto s = stats::summarize(run.op_steps());
    inc.add_row({str(k), str(v), num(s.mean), num(s.p99),
                 num(s.mean / lg(v), 3), str(settled)});
    curve.emplace_back(v, s.mean);
  }
  L.table("Lemma 4: increment cost vs total increments v", inc);
  L.fit("mean increment steps vs v", curve);

  renaming::AdaptiveStrongRenaming::Options unit;
  unit.comparators = renaming::AdaptiveComparatorKind::kHardware;
  Table vs_tree({"k", "monotone", "monotone (unit-cost)", "[17] tree",
                 "tree/monotone", "tree/unit-cost"});
  for (int k = 2; k <= 32; k *= 2) {
    counting::MonotoneCounter mono;
    counting::MonotoneCounter mono_hw(unit);
    counting::MaxRegTreeCounter tree(k, 1 << 20);
    const double m = mean_increment(mono, k, 5, k * 7 + 1);
    const double h = mean_increment(mono_hw, k, 5, k * 7 + 3);
    const double t = mean_increment(tree, k, 5, k * 7 + 2);
    vs_tree.add_row({str(k), num(m), num(h), num(t), num(t / m), num(t / h)});
  }
  L.table("Sec. 8.1: mean increment steps against the linearizable [17] "
          "counter (the ratio should grow with k)",
          vs_tree);

  Table read({"v", "read steps"});
  counting::MonotoneCounter counter;
  Ctx ctx(0, 99);
  for (U64 target : {4, 16, 64, 256}) {
    while (counter.read(ctx) < target) counter.increment(ctx);
    const U64 before = ctx.steps();
    (void)counter.read(ctx);
    read.add_row({str(target), str(ctx.steps() - before)});
  }
  L.table("Lemma 4: a read is one max-register read", read);
}

// ----------------------------------------------------------- Sec. 8.2 ---

void fetch_increment(Ledger& L) {
  Table ltas({"l", "k", "winners", "mean steps", "p99 steps"});
  for (int l : {1, 2, 8}) {
    for (int k : {4, 16, 48}) {
      counting::LTestAndSet t(static_cast<U64>(l));
      const auto run = api::Workload(sim(k, 1, l * 100 + k)).run_ops([&](Ctx& ctx) {
        return t.test_and_set(ctx) ? 1ULL : 0ULL;
      });
      const auto values = run.values();
      const auto winners = std::count(values.begin(), values.end(), 1ULL);
      L.check(winners == std::min(l, k),
              "l-TAS l=" + str(l) + " k=" + str(k) + " has min(l,k) winners");
      const auto s = stats::summarize(run.op_steps());
      ltas.add_row({str(l), str(k), str(winners), num(s.mean), num(s.p99)});
    }
  }
  L.table("Lemma 5: l-test-and-set", ltas);

  // k <= m: the values are exactly 0..k-1. k > m: the first m ops take
  // 0..m-1 and the object saturates, returning m-1 for the rest.
  Table fai({"m", "k", "mean steps", "p99 steps", "steps/(log k*log m)"});
  Points curve;
  for (U64 m : {8, 64, 1024}) {
    for (int k : {2, 8, 24, 64}) {
      const auto run = api::Workload::run_facet_spec(
          api::Facet::kCounter, "bounded_fai:m=" + str(m),
          sim(k, 1, m * 13 + k));
      auto values = run.values();
      std::sort(values.begin(), values.end());
      bool dense = values.size() == static_cast<std::size_t>(k);
      for (std::size_t i = 0; dense && i < values.size(); ++i) {
        dense = values[i] == std::min<U64>(i, m - 1);
      }
      L.check(dense, "FAI m=" + str(m) + " k=" + str(k) + " returns 0..k-1");
      const auto s = stats::summarize(run.op_steps());
      fai.add_row({str(m), str(k), num(s.mean), num(s.p99),
                   num(s.mean / (lg(k + 1) * lg(m)), 3)});
      if (m == 1024) curve.emplace_back(k, s.mean);
    }
  }
  L.table("Thm. 6: m-valued fetch-and-increment", fai);
  L.fit("mean steps vs k at m=1024", curve);
}

// ---------------------------------------------------------- Sec. 1 / 3 ---

/// Mean steps per process of a hold-all run of `spec` by k processes, whose
/// names must be unique and within the entry's declared bound.
double renaming_mean(Ledger& L, const std::string& spec, int k, U64 seed) {
  const auto run = api::Workload::run_facet_spec(api::Facet::kRenaming, spec,
                                                 sim(k, 1, seed));
  const auto parsed = api::Spec::parse(spec);
  const auto* info = api::Registry::global().find_renaming(parsed.name());
  L.tight(run.values(), info->name_bound(k, parsed), spec + " k=" + str(k));
  return run.mean_proc_steps();
}

void comparison(Ledger& L) {
  // Unit-cost TAS everywhere, so the probe counts are comparable.
  const auto specs = [](int k) {
    U64 width = 2;
    while (width < static_cast<U64>(k)) width <<= 1;
    return std::vector<std::string>{
        "adaptive_strong:tas=hw",
        "linear_probe:cap=" + str(2 * k),
        "bit_batching:n=" + str(std::max(k, 4)) + ",tas=hw",
        "moir_anderson:n=" + str(k),
        "renaming_network:w=" + str(width) + ",tas=hw"};
  };
  std::vector<std::string> header{"k"};
  for (const auto& spec : specs(2)) {
    header.push_back(api::Spec::parse(spec).name());
  }
  header.push_back("linear/adaptive");
  Table who(header);
  Points adaptive, linear;
  // Past k = 128 only the two columns the crossover needs run.
  for (int k = 2; k <= 512; k *= 2) {
    std::vector<std::string> row{str(k)};
    const auto all = specs(k);
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (k > 128 && i >= 2) {
        row.push_back("-");
        continue;
      }
      const double mean = renaming_mean(L, all[i], k, k + i + 1);
      if (i < 2) (i == 0 ? adaptive : linear).emplace_back(k, mean);
      row.push_back(num(mean));
    }
    row.push_back(num(linear.back().second / adaptive.back().second));
    who.add_row(row);
  }
  L.table("Sec. 1: mean steps per process of every registered renaming",
          who);
  L.fit("adaptive_strong mean steps vs k", adaptive);
  L.fit("linear_probe mean steps vs k", linear);

  Table adaptivity({"k", "bit_batching:n=1024", "adaptive_strong"});
  for (int k : {2, 8, 32}) {
    adaptivity.add_row(
        {str(k), num(renaming_mean(L, "bit_batching:n=1024,tas=hw", k, k * 5 + 1)),
         num(renaming_mean(L, "adaptive_strong:tas=hw", k, k * 5 + 2))});
  }
  L.table("Adaptivity: BitBatching pays for its provisioned n, adaptive "
          "renaming only for k",
          adaptivity);
}

// ---------------------------------------------------------- ablations ---

/// Steps per process over 4 seeded runs of a renaming network over `base`
/// with every port taken; each run's names must be exactly 1..width.
stats::Summary network_runs(Ledger& L, const sortnet::ComparatorNetwork& base,
                            renaming::ComparatorKind kind, U64 seed_step,
                            U64 seed, const std::string& where) {
  const int k = static_cast<int>(base.width());
  std::vector<double> all;
  for (U64 run = 0; run < 4; ++run) {
    renaming::RenamingNetwork net(sortnet::ComparatorNetwork(base), kind);
    std::vector<U64> names(k);
    const auto steps = sim_steps(k, run * seed_step + seed, [&](Ctx& ctx) {
      names[ctx.pid()] = net.rename(ctx, static_cast<U64>(ctx.pid()) + 1);
    });
    L.tight(names, k, where);
    all.insert(all.end(), steps.begin(), steps.end());
  }
  return stats::summarize(all);
}

void ablation_base(Ledger& L) {
  Table table({"base", "width", "size", "depth", "mean steps", "p99 steps"});
  Points curve;
  for (std::size_t width : {8, 16, 32}) {
    std::vector<std::pair<std::string, sortnet::ComparatorNetwork>> bases = {
        {"odd-even", sortnet::odd_even_merge_sort(width)},
        {"bitonic", sortnet::bitonic_sort(width)},
        {"pairwise", sortnet::pairwise_sort(width)}};
    if (width <= 12) bases.emplace_back("optimal", sortnet::optimal_small_sort(width));
    for (const auto& [name, base] : bases) {
      const auto s = network_runs(L, base, renaming::ComparatorKind::kRandomized,
                                  97, width, name + " base, width " + str(width));
      table.add_row({name, str(width), str(base.size()), str(base.depth()),
                     num(s.mean), num(s.p99)});
      if (name == "odd-even") curve.emplace_back(width, s.mean);
    }
  }
  L.table("(a) sorting-network base, all width participants, 4 runs", table);
  L.fit("odd-even mean steps vs width", curve);
}

void ablation_arbitration(Ledger& L) {
  Table table({"width=k", "arbitration", "mean steps", "p99 steps",
               "max steps"});
  Points curve;
  for (std::size_t width : {16, 64, 256}) {
    for (const auto kind : {renaming::ComparatorKind::kRandomized,
                            renaming::ComparatorKind::kHardware}) {
      const bool rnd = kind == renaming::ComparatorKind::kRandomized;
      const auto s = network_runs(L, sortnet::odd_even_merge_sort(width), kind,
                                  31, 5, "arbitration, width " + str(width));
      table.add_row({str(width), rnd ? "randomized" : "unit-cost",
                     num(s.mean), num(s.p99), num(s.max, 0)});
      if (rnd) curve.emplace_back(width, s.mean);
    }
  }
  L.table("(b) comparator arbitration in a Batcher renaming network, 4 runs",
          table);
  L.fit("randomized mean steps vs width", curve);
}

void ablation_stages(Ledger& L) {
  // Stage-2 floor: each randomized comparator costs at least two register
  // steps; the rest of a process's steps are charged to TempName.
  Table table({"k", "mean steps", "stage1 share %", "stage2 comps",
               "temp retries"});
  Points curve;
  for (int k : {4, 16, 64}) {
    renaming::AdaptiveStrongRenaming renaming;
    std::vector<renaming::AdaptiveStrongRenaming::Outcome> outs(k);
    const auto steps = sim_steps(k, k * 7 + 9, [&](Ctx& ctx) {
      outs[ctx.pid()] = renaming.rename_instrumented(ctx, ctx.pid() + 1);
    });
    double total = 0, comps = 0, retries = 0;
    std::vector<U64> names;
    for (int p = 0; p < k; ++p) {
      total += steps[p];
      comps += static_cast<double>(outs[p].comparators);
      retries += static_cast<double>(outs[p].temp_retries);
      names.push_back(outs[p].name);
    }
    L.tight(names, k, "stage ablation k=" + str(k));
    table.add_row({str(k), num(total / k),
                   num(100.0 * (total - 2 * comps) / total, 1),
                   num(comps / k), num(retries, 0)});
    curve.emplace_back(k, comps / k);
  }
  L.table("(c) TempName (stage 1) against the network walk (stage 2)", table);
  L.fit("stage-2 comparators vs k", curve);
}

void ablation_long_lived(Ledger& L) {
  Table table({"holders", "mean probes", "max name seen"});
  Points curve;
  for (int holders : {1, 4, 16, 64, 256}) {
    renaming::LongLivedRenaming names(4096);
    Ctx ctx(0, 77);
    std::set<U64> held;
    for (int i = 0; i + 1 < holders; ++i) held.insert(names.acquire(ctx));
    double probes = 0;
    U64 max_name = 0;
    bool fresh = held.size() == static_cast<std::size_t>(holders - 1);
    for (int cycle = 0; cycle < 60; ++cycle) {
      const auto out = names.acquire_instrumented(ctx);
      fresh &= held.count(out.name) == 0;
      probes += static_cast<double>(out.probes);
      max_name = std::max(max_name, out.name);
      names.release(ctx, out.name);
    }
    L.check(fresh, "acquires avoid held names, holders=" + str(holders));
    table.add_row({str(holders), num(probes / 60), str(max_name)});
    curve.emplace_back(holders, probes / 60);
  }
  L.table("(d) long-lived acquire cost with h holders, 4096 slots", table);
  L.fit("mean probes vs holders", curve);
}

// -------------------------------------------------- long-lived churn ---

void churn(Ledger& L) {
  Table table({"spec", "mode", "k", "ops", "mean steps", "p99 steps"});
  const api::Spec defaults;
  Points curve;  // longlived's tail: lease serves from escrow at p99 0
  for (const auto& info : api::Registry::global().renamings()) {
    for (int k : {2, 4, 8}) {
      // Reusable entries churn freely; a one-shot namespace caps the total
      // request count.
      int ops = info.reusable ? 512 : 48;
      if (!info.reusable) ops = std::min(ops, info.max_requests(defaults) / k);
      if (ops < 1) continue;
      const auto obj = api::Registry::global().make_renaming(info.name);
      const auto run = api::Workload(sim(k, ops, 17 * k + 5)).run_ops([&](Ctx& ctx) {
        const U64 name = obj->acquire(ctx);
        obj->release(ctx, name);
        return name;
      });
      const std::string where = info.name + " k=" + str(k);
      auto names = run.values();
      if (info.reusable) {
        // At quiescence nothing is held, and every name stayed within the
        // bound for k concurrent holders.
        L.check(obj->holders() == 0, where + ": no name held after release");
        const U64 bound = info.name_bound(k, defaults);
        L.check(std::all_of(names.begin(), names.end(),
                            [&](U64 n) { return n >= 1 && n <= bound; }),
                where + ": names within 1.." + str(bound));
      } else {
        // One-shot names are permanent: all distinct, within the bound for
        // that many requests.
        const auto bound = info.name_bound(static_cast<int>(names.size()), defaults);
        const auto result = renaming::check_tight(names, bound);
        L.check(result.ok, where + ": " + result.error);
      }
      const auto s = stats::summarize(run.op_steps());
      if (info.name == "longlived") curve.emplace_back(k, static_cast<double>(
            stats::LatencySnapshot::of(run.op_steps()).percentile(0.99)));
      table.add_row({info.name, info.reusable ? "churn" : "one-shot", str(k),
                     str(run.metrics.ops), num(s.mean), num(s.p99)});
    }
  }
  L.table("Acquire+release cycles over every renaming entry ('one-shot': "
          "release is a no-op, ops capped by max_requests)",
          table);
  L.fit("longlived p99 steps vs k", curve);
}

// Bounds with a sorting-network depth name the Batcher shape measured here
// next to the paper's AKS one; the verdict judges the Batcher exponent.
constexpr Claim kClaims[] = {
    {"Sec. 2: test-and-set substrate",
     "RatRace O(log^2 k) steps w.h.p., two-process TAS O(1) expected", 2,
     false, tas_substrate},
    {"Sec. 4: BitBatching (Fig. 1, Lemma 1, Cor. 1-2)",
     "O(log^2 n) TAS probes per process w.h.p., O(n log n) in total", 2,
     false, bit_batching},
    {"Sec. 5: renaming networks (Thm. 1, Cor. 3)",
     "names 1..k in O(depth) steps: O(log M) with AKS, O(log^2 M) Batcher", 2,
     false, renaming_network},
    {"Sec. 6.1: the adaptive sorting network (Fig. 2, Lemma 2, Thm. 2)",
     "O(log^c max(n,m)) comparators per traversal, c = 2 with Batcher", 2,
     false, adaptive_network},
    {"Sec. 6.2: adaptive strong renaming (Thm. 3)",
     "O(log k) expected steps with AKS, O(log^2 k) with Batcher", 2, false,
     adaptive_renaming},
    {"Sec. 7: the lower bound (Thm. 4-5, Cor. 4)",
     "Omega(c log k) expected steps for any c-terminating renaming", 1, true,
     lower_bound},
    {"Sec. 8.1: the monotone counter (Lemma 4)",
     "O(log v) expected steps per increment with AKS, O(log^2) with Batcher",
     2, false, monotone_counter},
    {"Sec. 8.2: l-test-and-set and fetch-and-increment (Lemma 5, Thm. 6)",
     "min(l,k) l-TAS winners, O(log k log m) steps per fetch-and-increment "
     "with AKS, O(log^2 k log m) with Batcher",
     2, false, fetch_increment},
    {"Sec. 1 / 3: every registered renaming, head to head",
     "adaptive renaming in polylog(k) steps, linear probing in Theta(k)", 2,
     false, comparison},
    {"Ablation (a): the sorting-network base",
     "O(depth) steps per process whatever the base", 2, false, ablation_base},
    {"Ablation (b): comparator arbitration",
     "O(1) expected steps per randomized comparator, so O(depth) per process",
     2, false, ablation_arbitration},
    {"Ablation (c): TempName against the network walk",
     "O(log^2 k) stage-2 comparators with Batcher", 2, false,
     ablation_stages},
    {"Ablation (d): long-lived renaming probes",
     "O(log h) probes per acquire with h holders, whatever the capacity", 1,
     false, ablation_long_lived},
    {"Long-lived churn: acquire/release over every renaming entry",
     "reusable names within name_bound(k), O(log k) steps per acquire", 1,
     false, churn},
};

}  // namespace

int run_claims(std::ostream& out) {
  Ledger L{out};
  int checks = 0, failed = 0;
  for (const Claim& claim : kClaims) {
    out << "\n=== " << claim.section << " ===\n";
    L.checks = L.failed = 0;
    L.verdict_fit = {};
    claim.run(L);
    const auto& fit = L.verdict_fit;
    const double fitted = exponent_of(fit.model);
    const char* shape =
        fit.r2 < 0.9 ? "inconclusive (R^2 below 0.9)"
        : (claim.lower ? fitted >= claim.exponent : fitted <= claim.exponent)
            ? "consistent"
            : "not consistent";
    out << "verdict: paper claims " << claim.bound << " | fitted "
        << fit.model << ": " << shape << " | " << L.checks - L.failed
        << " of " << L.checks << " checks held\n";
    checks += L.checks;
    failed += L.failed;
  }
  out << "\nclaims ledger: " << std::size(kClaims) << " claims, " << checks
      << " checks, " << failed << " failed\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace renamelib::tools
