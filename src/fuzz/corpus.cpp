#include "fuzz/corpus.h"

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace renamelib::fuzz {
namespace {

constexpr const char* kFormat = "renamelib.fuzz_case.v1";

const char* work_name(Work w) {
  switch (w) {
    case Work::kStandard: return "standard";
    case Work::kChurn: return "churn";
    case Work::kExplore: return "explore";
  }
  return "?";
}

Work work_from(const std::string& s) {
  if (s == "standard") return Work::kStandard;
  if (s == "churn") return Work::kChurn;
  if (s == "explore") return Work::kExplore;
  throw std::invalid_argument("fuzz case: unknown work '" + s + "'");
}

const char* sched_name(api::Sched s) {
  switch (s) {
    case api::Sched::kRandom: return "random";
    case api::Sched::kRoundRobin: return "round-robin";
    case api::Sched::kObstruction: return "obstruction";
  }
  return "?";
}

api::Sched sched_from(const std::string& s) {
  if (s == "random") return api::Sched::kRandom;
  if (s == "round-robin") return api::Sched::kRoundRobin;
  if (s == "obstruction") return api::Sched::kObstruction;
  throw std::invalid_argument("fuzz case: unknown sched '" + s + "'");
}

/// Escapes the two characters the writer can actually emit inside a string
/// (spec grammar forbids quotes/backslashes; notes are author-controlled,
/// but a stray quote must not corrupt the document).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Minimal parser for the flat v1 format: one object, string and unsigned
/// integer values. Not a general JSON parser by design.
std::map<std::string, std::string> parse_flat_object(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
  };
  const auto expect = [&](char c) {
    skip_ws();
    if (i >= text.size() || text[i] != c) {
      throw std::invalid_argument(std::string("fuzz case: expected '") + c +
                                  "' at offset " + std::to_string(i));
    }
    ++i;
  };
  const auto parse_string = [&] {
    expect('"');
    std::string out;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;
      out += text[i++];
    }
    expect('"');
    return out;
  };
  expect('{');
  skip_ws();
  if (i < text.size() && text[i] == '}') return kv;
  for (;;) {
    const std::string key = parse_string();
    expect(':');
    skip_ws();
    std::string value;
    if (i < text.size() && text[i] == '"') {
      value = parse_string();
    } else {
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])) != 0)) {
        value += text[i++];
      }
      if (value.empty()) {
        throw std::invalid_argument(
            "fuzz case: expected a string or unsigned integer value for '" +
            key + "'");
      }
    }
    if (!kv.emplace(key, value).second) {
      throw std::invalid_argument("fuzz case: duplicate key '" + key + "'");
    }
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  expect('}');
  return kv;
}

std::uint64_t take_u64(std::map<std::string, std::string>& kv,
                       const std::string& key, std::uint64_t def) {
  const auto it = kv.find(key);
  if (it == kv.end()) return def;
  const std::string v = it->second;
  kv.erase(it);
  try {
    return std::stoull(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("fuzz case: '" + key +
                                "' is not an unsigned integer: " + v);
  }
}

std::string take_str(std::map<std::string, std::string>& kv,
                     const std::string& key, const std::string& def) {
  const auto it = kv.find(key);
  if (it == kv.end()) return def;
  std::string v = it->second;
  kv.erase(it);
  return v;
}

}  // namespace

api::Scenario FuzzCase::scenario() const {
  api::Scenario s;
  s.nproc = nproc;
  s.ops_per_proc = ops_per_proc;
  s.backend = api::Backend::kSimulated;
  s.sched = sched;
  s.seed = seed;
  s.crashes.max_crashes = max_crashes;
  s.crashes.crash_step_max = crash_step_max;
  s.read_period = read_period;
  return s;
}

std::string serialize_case(const FuzzCase& c) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"format\": \"" << kFormat << "\",\n";
  out << "  \"facet\": \"" << api::facet_name(c.facet) << "\",\n";
  out << "  \"spec\": \"" << escape(c.spec) << "\",\n";
  out << "  \"work\": \"" << work_name(c.work) << "\",\n";
  out << "  \"nproc\": " << c.nproc << ",\n";
  out << "  \"ops_per_proc\": " << c.ops_per_proc << ",\n";
  out << "  \"sched\": \"" << sched_name(c.sched) << "\",\n";
  out << "  \"seed\": " << c.seed << ",\n";
  out << "  \"max_crashes\": " << c.max_crashes << ",\n";
  out << "  \"crash_step_max\": " << c.crash_step_max << ",\n";
  out << "  \"read_period\": " << c.read_period << ",\n";
  out << "  \"note\": \"" << escape(c.note) << "\"\n";
  out << "}\n";
  return out.str();
}

FuzzCase parse_case(const std::string& text) {
  auto kv = parse_flat_object(text);
  const std::string format = take_str(kv, "format", "");
  if (format != kFormat) {
    throw std::invalid_argument("fuzz case: unsupported format '" + format +
                                "' (want " + std::string(kFormat) + ")");
  }
  FuzzCase c;
  c.facet = api::facet_from_name(take_str(kv, "facet", "counter"));
  c.spec = take_str(kv, "spec", "");
  if (c.spec.empty()) throw std::invalid_argument("fuzz case: missing spec");
  c.work = work_from(take_str(kv, "work", "standard"));
  c.nproc = static_cast<int>(take_u64(kv, "nproc", 4));
  c.ops_per_proc = static_cast<int>(take_u64(kv, "ops_per_proc", 2));
  c.sched = sched_from(take_str(kv, "sched", "random"));
  c.seed = take_u64(kv, "seed", 1);
  c.max_crashes = static_cast<std::size_t>(take_u64(kv, "max_crashes", 0));
  c.crash_step_max = take_u64(kv, "crash_step_max", 2);
  c.read_period = static_cast<int>(take_u64(kv, "read_period", 3));
  c.note = take_str(kv, "note", "");
  if (!kv.empty()) {
    throw std::invalid_argument("fuzz case: unknown key '" +
                                kv.begin()->first + "'");
  }
  return c;
}

FuzzCase load_case_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fuzz case: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_case(buf.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void write_case_file(const FuzzCase& c, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write fuzz case: " + path);
  out << serialize_case(c);
  if (!out) throw std::runtime_error("failed writing fuzz case: " + path);
}

std::uint64_t case_hash(const FuzzCase& c) {
  const std::string text = serialize_case(c);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char ch : text) {
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001B3ULL;
  }
  return h;
}

}  // namespace renamelib::fuzz
