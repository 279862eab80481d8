#include "api/report.h"

#include "api/spec.h"
#include "api/workload.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

// Stamped per-build by cmake/GitDescribe.cmake (git describe --always
// --dirty, regenerated on every build so incremental builds stay honest);
// the fallback covers builds outside CMake or a git checkout.
#ifdef RENAMELIB_HAVE_GIT_STAMP
#include "renamelib_git_describe.h"
#endif
#ifndef RENAMELIB_GIT_DESCRIBE
#define RENAMELIB_GIT_DESCRIBE "unknown"
#endif

namespace renamelib::api {

std::string BenchReport::build_git_describe() { return RENAMELIB_GIT_DESCRIBE; }

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// %.17g round-trips every finite double: strtod(fmt(x)) == x, so a reader
/// recovers the exact value the run recorded.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// Emitted specs are canonical (api::Spec print: sorted keys, normalized
/// brackets), so tools/bench_compare.py can match runs by the spec string
/// verbatim; non-spec labels (and "") pass through unchanged.
std::string canonical_spec(const std::string& spec) {
  if (spec.empty()) return spec;
  try {
    return Spec::parse(spec).print();
  } catch (const std::invalid_argument&) {
    return spec;
  }
}

void append_latency(std::string& out, const stats::LatencySnapshot& lat,
                    const std::string& indent) {
  out += "{\n";
  const std::string in2 = indent + "  ";
  out += in2 + "\"count\": " + fmt_u64(lat.count()) + ",\n";
  out += in2 + "\"sum\": " + fmt_double(lat.sum()) + ",\n";
  out += in2 + "\"sum_sq\": " + fmt_double(lat.sum_sq()) + ",\n";
  out += in2 + "\"min\": " + fmt_u64(lat.min()) + ",\n";
  out += in2 + "\"max\": " + fmt_u64(lat.max()) + ",\n";
  out += in2 + "\"mean\": " + fmt_double(lat.mean()) + ",\n";
  out += in2 + "\"p50\": " + fmt_u64(lat.percentile(0.50)) + ",\n";
  out += in2 + "\"p90\": " + fmt_u64(lat.percentile(0.90)) + ",\n";
  out += in2 + "\"p99\": " + fmt_u64(lat.percentile(0.99)) + ",\n";
  out += in2 + "\"p999\": " + fmt_u64(lat.percentile(0.999)) + ",\n";
  out += in2 + "\"buckets\": [";
  const auto bars = lat.nonzero_buckets();
  for (std::size_t i = 0; i < bars.size(); ++i) {
    if (i > 0) out += ", ";
    // Appends, not `"[" + std::string&&`: GCC 12 at -O3 reports a false
    // -Wrestrict inside libstdc++ for that concatenation.
    out += '[';
    out += fmt_u64(bars[i].lower);
    out += ", ";
    out += fmt_u64(bars[i].upper);
    out += ", ";
    out += fmt_u64(bars[i].count);
    out += ']';
  }
  out += "]\n" + indent + "}";
}

}  // namespace

ReportRun report_run(std::string name, std::string spec, const Scenario& s,
                     const Run& run) {
  ReportRun r;
  r.name = std::move(name);
  r.spec = std::move(spec);
  r.backend = s.backend == Backend::kHardware ? "hardware"
              : s.backend == Backend::kProc   ? "proc"
                                              : "simulated";
  r.threads = s.nproc;
  r.ops = run.metrics.ops;
  r.ops_per_sec = run.metrics.ops_per_sec();
  if (s.backend != Backend::kSimulated) {
    r.unit = "ns";
    r.latency = run.latency;
  } else {
    r.unit = "steps";
    r.latency = stats::LatencySnapshot::of(run.op_steps());
  }
  r.events = report_events(run.events);
  return r;
}

std::vector<std::pair<std::string, std::uint64_t>> report_events(
    const obs::EventSnapshot& events) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [site, count] : events.nonzero()) {
    out.emplace_back(obs::site_name(site), count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string BenchReport::to_json() const {
  std::string out = "{\n";
  out += "  \"schema\": ";
  append_escaped(out, kSchema);
  out += ",\n  \"bench\": ";
  append_escaped(out, bench);
  out += ",\n  \"git_describe\": ";
  append_escaped(out, git_describe);
  out += ",\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ReportRun& r = runs[i];
    out += (i > 0 ? ",\n    {\n" : "\n    {\n");
    out += "      \"name\": ";
    append_escaped(out, r.name);
    out += ",\n      \"spec\": ";
    append_escaped(out, canonical_spec(r.spec));
    out += ",\n      \"backend\": ";
    append_escaped(out, r.backend);
    out += ",\n      \"threads\": " + std::to_string(r.threads);
    out += ",\n      \"ops\": " + fmt_u64(r.ops);
    out += ",\n      \"ops_per_sec\": " + fmt_double(r.ops_per_sec);
    out += ",\n      \"unit\": ";
    append_escaped(out, r.unit);
    out += ",\n      \"latency\": ";
    append_latency(out, r.latency, "      ");
    // Emitted only when nonempty: event-less runs (and reports written
    // before the field existed) keep their exact old byte form.
    if (!r.events.empty()) {
      out += ",\n      \"events\": {";
      for (std::size_t e = 0; e < r.events.size(); ++e) {
        if (e > 0) out += ", ";
        append_escaped(out, r.events[e].first);
        out += ": " + fmt_u64(r.events[e].second);
      }
      out += "}";
    }
    out += "\n    }";
  }
  out += runs.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  out << to_json();
  if (!out.flush()) throw std::runtime_error("write to '" + path + "' failed");
}

}  // namespace renamelib::api
