// Tests for the machine-readable bench report contract (api/report.h):
// lossless JSON round-trip, schema rejection of malformed input, and the
// file I/O path every bench binary drives behind --json=FILE.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/report.h"
#include "stats/latency_recorder.h"

namespace renamelib::api {
namespace {

BenchReport sample_report() {
  BenchReport report;
  report.bench = "bench_unit";
  report.git_describe = "v0-test";
  ReportRun hw;
  hw.name = "shootout";
  hw.spec = "lease:inner=[striped:stripes=4],quota=8";
  hw.backend = "hardware";
  hw.threads = 8;
  hw.ops = 4096;
  hw.ops_per_sec = 1.25e6;
  hw.unit = "ns";
  hw.latency =
      stats::LatencySnapshot::of({120, 140, 155, 900, 1e6, 7.5e9, 30, 120});
  report.runs.push_back(hw);
  ReportRun sim;
  sim.name = "steps \"quoted\"\nline";  // exercises string escaping
  sim.spec = "";
  sim.backend = "simulated";
  sim.threads = 4;
  sim.ops = 12;
  sim.ops_per_sec = 0;
  sim.unit = "steps";
  sim.latency = stats::LatencySnapshot::of({3, 3, 4, 17});
  report.runs.push_back(sim);
  return report;
}

TEST(BenchReport, JsonRoundTripIsLossless) {
  const BenchReport report = sample_report();
  const std::string json = report.to_json();
  const BenchReport parsed = BenchReport::from_json(json);

  EXPECT_EQ(parsed.bench, report.bench);
  EXPECT_EQ(parsed.git_describe, report.git_describe);
  ASSERT_EQ(parsed.runs.size(), report.runs.size());
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const ReportRun& a = report.runs[i];
    const ReportRun& b = parsed.runs[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.spec, a.spec);
    EXPECT_EQ(b.backend, a.backend);
    EXPECT_EQ(b.threads, a.threads);
    EXPECT_EQ(b.ops, a.ops);
    EXPECT_DOUBLE_EQ(b.ops_per_sec, a.ops_per_sec);
    EXPECT_EQ(b.unit, a.unit);
    EXPECT_EQ(b.latency.count(), a.latency.count());
    EXPECT_EQ(b.latency.min(), a.latency.min());
    EXPECT_EQ(b.latency.max(), a.latency.max());
    EXPECT_DOUBLE_EQ(b.latency.sum(), a.latency.sum());
    EXPECT_DOUBLE_EQ(b.latency.sum_sq(), a.latency.sum_sq());
    for (const double p : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(b.latency.percentile(p), a.latency.percentile(p)) << p;
    }
  }
  // Emit(parse(emit(x))) is byte-identical: %.17g doubles round-trip and the
  // field order is fixed, so diffs between report files mean data changes.
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(BenchReport, EmptyRunsRoundTrip) {
  BenchReport report;
  report.bench = "bench_empty";
  const BenchReport parsed = BenchReport::from_json(report.to_json());
  EXPECT_EQ(parsed.bench, "bench_empty");
  EXPECT_TRUE(parsed.runs.empty());
  EXPECT_EQ(parsed.to_json(), report.to_json());
}

TEST(BenchReport, BuildStampIsNonEmpty) {
  EXPECT_FALSE(BenchReport::build_git_describe().empty());
  EXPECT_EQ(sample_report().to_json().find("\"schema\""), 4u);  // leads the file
}

TEST(BenchReport, RejectsMalformedInput) {
  EXPECT_THROW(BenchReport::from_json("not json"), std::invalid_argument);
  EXPECT_THROW(BenchReport::from_json("{\"schema\": \"other.v9\"}"),
               std::invalid_argument);
  // Truncated document.
  const std::string json = sample_report().to_json();
  EXPECT_THROW(BenchReport::from_json(json.substr(0, json.size() / 2)),
               std::invalid_argument);
  // Bucket counts disagreeing with the latency count must not parse: the
  // snapshot would silently misreport percentiles.
  std::string tampered = json;
  const auto pos = tampered.find("\"count\": 8");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 10, "\"count\": 9");
  EXPECT_THROW(BenchReport::from_json(tampered), std::invalid_argument);
  // Partially-numeric tokens must not silently truncate ("3e5e6" -> 3e5).
  std::string bad_number = json;
  const auto ops_pos = bad_number.find("\"ops_per_sec\": 1250000");
  ASSERT_NE(ops_pos, std::string::npos);
  bad_number.replace(ops_pos, 22, "\"ops_per_sec\": 3e5e6.2");
  EXPECT_THROW(BenchReport::from_json(bad_number), std::invalid_argument);
  // A min outside the lowest non-empty bucket must not parse: percentile()
  // clamps to min, so a tampered min would inflate every percentile.
  std::string bad_min = json;
  const auto min_pos = bad_min.find("\"min\": 30");
  ASSERT_NE(min_pos, std::string::npos);
  bad_min.replace(min_pos, 9, "\"min\": 99");
  EXPECT_THROW(BenchReport::from_json(bad_min), std::invalid_argument);
}

TEST(BenchReport, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "report_test.json";
  const BenchReport report = sample_report();
  report.write_file(path);
  const BenchReport parsed = BenchReport::read_file(path);
  EXPECT_EQ(parsed.to_json(), report.to_json());
  std::remove(path.c_str());
  EXPECT_THROW(BenchReport::read_file(path), std::runtime_error);
}

}  // namespace
}  // namespace renamelib::api
