// Tests for the machine-readable bench report contract (api/report.h): the
// exact bytes to_json() emits (field order, %.17g doubles, escaping, sparse
// buckets, spec canonicalization) and the file path every report writer
// drives behind --json=FILE. Reading reports is tools/bench_compare.py's job;
// its --self-check covers the schema checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/report.h"
#include "stats/latency_snapshot.h"

namespace renamelib::api {
namespace {

BenchReport sample_report() {
  BenchReport report;
  report.bench = "bench_unit";
  report.git_describe = "v0-test";
  ReportRun hw;
  hw.name = "shootout";
  hw.spec = "lease:quota=8,inner=striped:stripes=4";  // emitted canonical
  hw.backend = "hardware";
  hw.threads = 8;
  hw.ops = 4096;
  hw.ops_per_sec = 1.25e6;
  hw.unit = "ns";
  hw.latency =
      stats::LatencySnapshot::of({120, 140, 155, 900, 1e6, 7.5e9, 30, 120});
  report.runs.push_back(hw);
  ReportRun sim;
  sim.name = "steps \"quoted\"\nline\t\\\x01";  // exercises string escaping
  sim.spec = "";
  sim.backend = "simulated";
  sim.threads = 4;
  sim.ops = 12;
  sim.ops_per_sec = 0.1;
  sim.unit = "steps";
  sim.latency = stats::LatencySnapshot::of({3, 3, 4, 17});
  report.runs.push_back(sim);
  return report;
}

// The sample's bytes, pinned: a diff between two report files then means
// the data changed, never the formatting.
constexpr const char* kSampleJson = R"({
  "schema": "renamelib.bench_report.v1",
  "bench": "bench_unit",
  "git_describe": "v0-test",
  "runs": [
    {
      "name": "shootout",
      "spec": "lease:inner=[striped:stripes=4],quota=8",
      "backend": "hardware",
      "threads": 8,
      "ops": 4096,
      "ops_per_sec": 1250000,
      "unit": "ns",
      "latency": {
        "count": 8,
        "sum": 7501001465,
        "sum_sq": 5.6250001000000881e+19,
        "min": 30,
        "max": 7500000000,
        "mean": 937625183.125,
        "p50": 140,
        "p90": 7381975040,
        "p99": 7381975040,
        "p999": 7381975040,
        "buckets": [[30, 31, 1], [120, 122, 2], [140, 144, 1], [152, 156, 1], [896, 912, 1], [999424, 1015808, 1], [7381975040, 7516192768, 1]]
      }
    },
    {
      "name": "steps \"quoted\"\nline\t\\\u0001",
      "spec": "",
      "backend": "simulated",
      "threads": 4,
      "ops": 12,
      "ops_per_sec": 0.10000000000000001,
      "unit": "steps",
      "latency": {
        "count": 4,
        "sum": 27,
        "sum_sq": 323,
        "min": 3,
        "max": 17,
        "mean": 6.75,
        "p50": 3,
        "p90": 17,
        "p99": 17,
        "p999": 17,
        "buckets": [[3, 4, 2], [4, 5, 1], [17, 18, 1]]
      }
    }
  ]
}
)";

TEST(BenchReport, JsonIsByteExact) {
  EXPECT_EQ(sample_report().to_json(), kSampleJson);
}

TEST(BenchReport, EmptyRunsJsonIsByteExact) {
  BenchReport report;
  report.bench = "bench_empty";
  report.git_describe = "v0-test";
  EXPECT_EQ(report.to_json(),
            "{\n"
            "  \"schema\": \"renamelib.bench_report.v1\",\n"
            "  \"bench\": \"bench_empty\",\n"
            "  \"git_describe\": \"v0-test\",\n"
            "  \"runs\": []\n"
            "}\n");
}

TEST(BenchReport, BuildStampIsNonEmpty) {
  EXPECT_FALSE(BenchReport::build_git_describe().empty());
  EXPECT_EQ(sample_report().to_json().find("\"schema\""), 4u);  // leads the file
}

TEST(BenchReport, WriteFileWritesExactlyToJson) {
  const std::string path = ::testing::TempDir() + "report_test.json";
  const BenchReport report = sample_report();
  report.write_file(path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), report.to_json());
  std::remove(path.c_str());
  EXPECT_THROW(report.write_file(::testing::TempDir() + "no/such/dir/r.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace renamelib::api
