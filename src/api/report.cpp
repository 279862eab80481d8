#include "api/report.h"

#include "api/spec.h"
#include "api/workload.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
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

// ---------------------------------------------------------------- emission

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

/// %.17g round-trips every finite double: strtod(fmt(x)) == x, and
/// re-formatting the parsed value reproduces the same string — which is what
/// makes to_json(from_json(j)) byte-identical.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// Emitted specs are canonical (api::Spec print: sorted keys, normalized
/// brackets) so reports match under key reordering; non-spec labels (and
/// "") pass through verbatim. Canonical printing is idempotent, which keeps
/// to_json(from_json(j)) byte-identical.
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
    out += "[" + fmt_u64(bars[i].lower) + ", " + fmt_u64(bars[i].upper) +
           ", " + fmt_u64(bars[i].count) + "]";
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

// ----------------------------------------------------------------- parsing

namespace {

/// Minimal recursive-descent JSON value: just enough for the report schema
/// (objects, arrays, strings, numbers, booleans, null). Numbers keep their
/// raw token so integers round-trip exactly beyond 2^53.
struct JValue {
  enum Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = kNull;
  std::vector<std::pair<std::string, JValue>> object;
  std::vector<JValue> array;
  std::string string;
  std::string number;  ///< raw token, e.g. "12", "-3.5e7"
  bool boolean = false;

  const JValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  JValue parse() {
    JValue v = value();
    skip_ws();
    if (p_ != end_) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::invalid_argument("bench report JSON: " + why);
  }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  char peek() {
    skip_ws();
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + *p_ + "'");
    ++p_;
  }

  bool try_consume(char c) {
    if (p_ != end_ && peek() == c) {
      ++p_;
      return true;
    }
    return false;
  }

  JValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JValue v;
        v.kind = JValue::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  JValue object() {
    expect('{');
    JValue v;
    v.kind = JValue::kObject;
    if (try_consume('}')) return v;
    for (;;) {
      std::string key = (expect_quote(), string());
      expect(':');
      v.object.emplace_back(std::move(key), value());
      if (try_consume('}')) return v;
      expect(',');
    }
  }

  void expect_quote() {
    if (peek() != '"') fail("expected object key string");
  }

  JValue array() {
    expect('[');
    JValue v;
    v.kind = JValue::kArray;
    if (try_consume(']')) return v;
    for (;;) {
      v.array.push_back(value());
      if (try_consume(']')) return v;
      expect(',');
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (p_ == end_) fail("unterminated string");
      const char c = *p_++;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ == end_) fail("unterminated escape");
      const char e = *p_++;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (end_ - p_ < 4) fail("truncated \\u escape");
          unsigned code = 0;
          const auto [ptr, ec] = std::from_chars(p_, p_ + 4, code, 16);
          if (ec != std::errc{} || ptr != p_ + 4) fail("bad \\u escape");
          p_ += 4;
          // Reports only emit \u for ASCII control characters; decode the
          // BMP range as UTF-8 so foreign files still parse.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JValue number() {
    skip_ws();
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    if (p_ == start) fail("expected a JSON value");
    JValue v;
    v.kind = JValue::kNumber;
    v.number.assign(start, p_);
    return v;
  }

  JValue boolean() {
    JValue v;
    v.kind = JValue::kBool;
    if (end_ - p_ >= 4 && std::string_view(p_, 4) == "true") {
      v.boolean = true;
      p_ += 4;
    } else if (end_ - p_ >= 5 && std::string_view(p_, 5) == "false") {
      v.boolean = false;
      p_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JValue null() {
    if (end_ - p_ >= 4 && std::string_view(p_, 4) == "null") {
      p_ += 4;
      JValue v;
      v.kind = JValue::kNull;
      return v;
    }
    fail("bad literal");
  }

  const char* p_;
  const char* end_;
};

[[noreturn]] void missing(const std::string& key) {
  throw std::invalid_argument("bench report JSON: missing or mistyped field '" +
                              key + "'");
}

const std::string& get_string(const JValue& obj, const std::string& key) {
  const JValue* v = obj.find(key);
  if (v == nullptr || v->kind != JValue::kString) missing(key);
  return v->string;
}

std::uint64_t get_u64(const JValue& obj, const std::string& key) {
  const JValue* v = obj.find(key);
  if (v == nullptr || v->kind != JValue::kNumber) missing(key);
  std::uint64_t out = 0;
  const auto& s = v->number;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("bench report JSON: field '" + key +
                                "' is not an unsigned integer: " + s);
  }
  return out;
}

double get_double(const JValue& obj, const std::string& key) {
  const JValue* v = obj.find(key);
  if (v == nullptr || v->kind != JValue::kNumber) missing(key);
  try {
    std::size_t consumed = 0;
    const double out = std::stod(v->number, &consumed);
    // Partial parses ("1.2.3", "3e5e6") must not silently truncate.
    if (consumed != v->number.size()) throw std::invalid_argument(v->number);
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("bench report JSON: field '" + key +
                                "' is not a number: " + v->number);
  }
}

std::uint64_t u64_token(const JValue& v, const char* what) {
  if (v.kind != JValue::kNumber) {
    throw std::invalid_argument(std::string("bench report JSON: ") + what +
                                " must be a number");
  }
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(v.number.data(), v.number.data() + v.number.size(), out);
  if (ec != std::errc{} || ptr != v.number.data() + v.number.size()) {
    throw std::invalid_argument(std::string("bench report JSON: ") + what +
                                " is not an unsigned integer: " + v.number);
  }
  return out;
}

stats::LatencySnapshot parse_latency(const JValue& obj) {
  const JValue* lat = obj.find("latency");
  if (lat == nullptr || lat->kind != JValue::kObject) missing("latency");
  const JValue* buckets = lat->find("buckets");
  if (buckets == nullptr || buckets->kind != JValue::kArray) missing("buckets");
  std::vector<stats::LatencySnapshot::Bar> bars;
  for (const JValue& row : buckets->array) {
    if (row.kind != JValue::kArray || row.array.size() != 3) {
      throw std::invalid_argument(
          "bench report JSON: each bucket must be [lower, upper, count]");
    }
    bars.push_back(stats::LatencySnapshot::Bar{
        u64_token(row.array[0], "bucket lower"),
        u64_token(row.array[1], "bucket upper"),
        u64_token(row.array[2], "bucket count")});
  }
  return stats::LatencySnapshot::from_parts(
      get_u64(*lat, "count"), get_double(*lat, "sum"),
      get_double(*lat, "sum_sq"), get_u64(*lat, "min"), get_u64(*lat, "max"),
      bars);
}

}  // namespace

BenchReport BenchReport::from_json(const std::string& json) {
  const JValue root = JsonParser(json).parse();
  if (root.kind != JValue::kObject) {
    throw std::invalid_argument("bench report JSON: top level must be an object");
  }
  if (get_string(root, "schema") != kSchema) {
    throw std::invalid_argument("bench report JSON: schema '" +
                                get_string(root, "schema") + "' != '" +
                                kSchema + "'");
  }
  BenchReport report;
  report.bench = get_string(root, "bench");
  report.git_describe = get_string(root, "git_describe");
  const JValue* runs = root.find("runs");
  if (runs == nullptr || runs->kind != JValue::kArray) missing("runs");
  for (const JValue& r : runs->array) {
    if (r.kind != JValue::kObject) {
      throw std::invalid_argument("bench report JSON: runs[] entries must be objects");
    }
    ReportRun run;
    run.name = get_string(r, "name");
    run.spec = get_string(r, "spec");
    run.backend = get_string(r, "backend");
    run.threads = static_cast<int>(get_u64(r, "threads"));
    run.ops = get_u64(r, "ops");
    run.ops_per_sec = get_double(r, "ops_per_sec");
    run.unit = get_string(r, "unit");
    run.latency = parse_latency(r);
    // Optional per-site event counts; absent (pre-events reports, bus-off
    // runs) parses as empty. Key order is preserved as written, which keeps
    // to_json(from_json(j)) byte-identical for foreign orderings too.
    if (const JValue* ev = r.find("events"); ev != nullptr) {
      if (ev->kind != JValue::kObject) {
        throw std::invalid_argument(
            "bench report JSON: 'events' must be an object");
      }
      for (const auto& [site, count] : ev->object) {
        run.events.emplace_back(site,
                                u64_token(count, "event count"));
      }
    }
    report.runs.push_back(std::move(run));
  }
  return report;
}

void BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  out << to_json();
  if (!out.flush()) throw std::runtime_error("write to '" + path + "' failed");
}

BenchReport BenchReport::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

}  // namespace renamelib::api
