// The facet conformance sweep, one list for every backend: each registry
// entry of every facet, the reusable renamings once more under
// acquire/release churn, and the extra specs below, judged by
// fuzz::run_case at seeds 1-3. run_case is the judge the fuzzer and the
// corpus replay use too, so a new entry or facet is conformance-tested on
// every backend by being registered and judged there, with no test code of
// its own. api_conformance_test runs the simulated and hardware legs,
// proc_backend_test the proc leg; the simulated and proc legs each run once
// more with crash victims.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "obs/flight_recorder.h"

namespace renamelib::conformance {

/// One swept spec under one of its facet's workloads.
struct Entry {
  api::Facet facet;
  std::string spec;
  fuzz::Work work;
};

/// One leg of the sweep: an entry on a backend, with or without victims.
struct Leg {
  Entry entry;
  api::Backend backend;
  bool crash;
};

/// Every registry entry at its defaults, churn for the reusable renamings,
/// and extra specs: stripe counts, a small dispenser and a lease over one,
/// RatRace TAS trees and a Moir–Anderson grid (built on first touch, so
/// under the proc backend they grow in the shared arena mid-operation), and
/// a lease over a small long-lived inner under churn.
inline std::vector<Entry> entries() {
  using api::Facet;
  using fuzz::Work;
  const api::Registry& reg = api::Registry::global();
  std::vector<Entry> out;
  for (const auto& e : reg.counters()) {
    out.push_back({Facet::kCounter, e.name, Work::kStandard});
  }
  for (const auto& e : reg.renamings()) {
    out.push_back({Facet::kRenaming, e.name, Work::kStandard});
    if (e.reusable) out.push_back({Facet::kRenaming, e.name, Work::kChurn});
  }
  for (const auto& e : reg.readables()) {
    out.push_back({Facet::kReadable, e.name, Work::kStandard});
  }
  for (const char* spec :
       {"striped:stripes=1", "striped:stripes=16", "bounded_fai:m=64",
        "lease:quota=4,inner=[bounded_fai:m=256]"}) {
    out.push_back({Facet::kCounter, spec, Work::kStandard});
  }
  for (const char* spec :
       {"linear_probe:tas=ratrace", "bit_batching:tas=ratrace",
        "moir_anderson:n=32", "lease:inner=[moir_anderson]"}) {
    out.push_back({Facet::kRenaming, spec, Work::kStandard});
  }
  out.push_back({Facet::kRenaming,
                 "lease:quota=4,procs=8,reclaim=0,inner=[longlived:cap=64]",
                 Work::kChurn});
  return out;
}

/// Every entry on each of `backends`, crash-free and, except on hardware
/// (whose threads cannot be killed), with victims.
inline std::vector<Leg> legs(std::initializer_list<api::Backend> backends) {
  std::vector<Leg> out;
  for (const api::Backend backend : backends) {
    for (const bool crash : {false, true}) {
      if (crash && backend == api::Backend::kHardware) continue;
      for (const Entry& e : entries()) out.push_back({e, backend, crash});
    }
  }
  return out;
}

/// The case `leg` runs at `seed`. Geometries: counters 4x2, or 4x4 with 2
/// victims; hold-all renamings 4x2, or 4x4 with 1 victim; churn 6x12 and
/// readables 4x6, with 1 victim on a crash leg. Every op costs at least one
/// shared step and victims die within their first two, so each victim still
/// has work left when its threshold comes and the crash count is exact.
inline fuzz::FuzzCase case_for(const Leg& leg, std::uint64_t seed) {
  fuzz::FuzzCase c;
  c.facet = leg.entry.facet;
  c.spec = leg.entry.spec;
  c.work = leg.entry.work;
  c.seed = seed;
  c.nproc = 4;
  if (c.work == fuzz::Work::kChurn) {
    c.nproc = 6;
    c.ops_per_proc = 12;
  } else if (c.facet == api::Facet::kReadable) {
    c.ops_per_proc = 6;
  } else {
    c.ops_per_proc = leg.crash ? 4 : 2;
  }
  if (leg.crash) c.max_crashes = c.facet == api::Facet::kCounter ? 2 : 1;
  return c;
}

/// Judges `leg` at seeds 1-3: each case runs at its full geometry, passes
/// every oracle, and kills exactly its planned victims.
inline void judge(const Leg& leg) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const fuzz::FuzzCase c = case_for(leg, seed);
    SCOPED_TRACE(fuzz::serialize_case(c));
    const fuzz::CaseResult r = fuzz::run_case(c, nullptr, leg.backend);
    ASSERT_TRUE(r.ran);
    ASSERT_EQ(r.attempted,
              static_cast<std::uint64_t>(c.nproc) * c.ops_per_proc)
        << "run_case clamped the sweep's geometry";
    std::string failures;
    for (const auto& f : r.failures) {
      failures += f.oracle + ": " + f.detail + "\n";
    }
    // run_case leaves the flight recorder holding this case's event tail.
    ASSERT_TRUE(r.ok) << failures
                      << obs::FlightRecorder::instance().format_tail();
    ASSERT_EQ(r.crashed_procs, c.max_crashes);
  }
}

/// A leg's test-name label: facet, spec, churn marker, backend, crash
/// marker.
inline std::string label(const Leg& leg) {
  std::string name = std::string(api::facet_name(leg.entry.facet)) + "_" +
                     leg.entry.spec;
  if (leg.entry.work == fuzz::Work::kChurn) name += "_churn";
  switch (leg.backend) {
    case api::Backend::kSimulated: name += "_sim"; break;
    case api::Backend::kHardware: name += "_hw"; break;
    case api::Backend::kProc: name += "_proc"; break;
  }
  if (leg.crash) name += "_crash";
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return name;
}

/// gtest's parameter name and printer for a leg.
inline std::string leg_name(const ::testing::TestParamInfo<Leg>& info) {
  return label(info.param);
}
inline void PrintTo(const Leg& leg, std::ostream* os) { *os << label(leg); }

/// The sweep's one test; each binary instantiates it over its legs.
class Conformance : public ::testing::TestWithParam<Leg> {};

}  // namespace renamelib::conformance
