#include "api/spec.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace renamelib::api {

SpecValue::SpecValue(Spec nested)
    : nested_(std::make_shared<const Spec>(std::move(nested))) {}

const std::string& SpecValue::scalar() const {
  if (is_spec()) {
    throw std::invalid_argument("spec value '" + print() +
                                "' is a nested spec, not a scalar");
  }
  return scalar_;
}

const Spec& SpecValue::spec() const {
  if (!is_spec()) {
    throw std::invalid_argument("spec value '" + scalar_ +
                                "' is a scalar, not a nested spec");
  }
  return *nested_;
}

Spec SpecValue::as_spec() const {
  if (is_spec()) return *nested_;
  return Spec::parse(scalar_);
}

std::string SpecValue::print() const {
  if (!is_spec()) return scalar_;
  // Bracket exactly when the nested spec carries options: `leaf=[striped]`
  // and `leaf=striped` mean the same object and must print identically.
  if (nested_->options().empty()) return nested_->name();
  std::string out = "[";
  out += nested_->print();
  out += ']';
  return out;
}

namespace {

/// Splits `rest` at top-level commas: commas inside [...] belong to a
/// nested spec value and do not separate options.
std::vector<std::string> split_options(const std::string& rest,
                                       const std::string& text) {
  std::vector<std::string> items;
  std::string item;
  int depth = 0;
  for (const char c : rest) {
    if (c == '[') ++depth;
    if (c == ']' && --depth < 0) {
      throw std::invalid_argument("unbalanced ']' in spec '" + text + "'");
    }
    if (c == ',' && depth == 0) {
      items.push_back(std::move(item));
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (depth != 0) {
    throw std::invalid_argument("unbalanced '[' in spec '" + text + "'");
  }
  items.push_back(std::move(item));
  return items;
}

}  // namespace

Spec Spec::parse(const std::string& text) {
  const auto colon = text.find(':');
  Spec out(text.substr(0, colon));
  if (out.name().empty()) {
    throw std::invalid_argument("empty implementation name in spec '" + text +
                                "'");
  }
  if (out.name().find_first_of("[],=") != std::string::npos) {
    throw std::invalid_argument("malformed implementation name '" + out.name() +
                                "' in spec '" + text + "'");
  }
  if (colon == std::string::npos) return out;
  for (const std::string& item : split_options(text.substr(colon + 1), text)) {
    const auto eq = item.find('=');
    if (item.empty() || eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("malformed key=value '" + item +
                                  "' in spec '" + text + "'");
    }
    const std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);
    if (value.size() >= 2 && value.front() == '[' && value.back() == ']') {
      // Bracketed value: a nested spec node, parsed recursively.
      out.set(key, SpecValue(parse(value.substr(1, value.size() - 2))));
    } else if (value.find_first_of("[]") != std::string::npos) {
      throw std::invalid_argument("stray bracket in value '" + value +
                                  "' of spec '" + text + "'");
    } else if (value.find(':') != std::string::npos) {
      // Unbracketed nested spec (legal while it carries no comma):
      // `leaf=striped:stripes=8` parses like `leaf=[striped:stripes=8]`.
      out.set(key, SpecValue(parse(value)));
    } else {
      out.set(key, SpecValue(std::move(value)));
    }
  }
  return out;
}

std::string Spec::print() const {
  std::string out = name_;
  if (options_.empty()) return out;
  std::vector<std::pair<std::string, std::string>> rendered;
  rendered.reserve(options_.size());
  for (const auto& [k, v] : options_) rendered.emplace_back(k, v.print());
  std::sort(rendered.begin(), rendered.end());
  out += ':';
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) out += ',';
    out += rendered[i].first + "=" + rendered[i].second;
  }
  return out;
}

const SpecValue* Spec::find(std::string_view key) const {
  for (const auto& [k, v] : options_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Spec::get(std::string_view key, std::string_view def) const {
  const SpecValue* v = find(key);
  return v != nullptr ? v->print() : std::string(def);
}

std::uint64_t Spec::get_u64(std::string_view key, std::uint64_t def) const {
  const SpecValue* v = find(key);
  if (v == nullptr) return def;
  const std::string& s = v->scalar();  // throws on a nested value
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("spec option '" + std::string(key) +
                                "' is not an unsigned integer: '" + s + "'");
  }
  return out;
}

Spec Spec::get_spec(std::string_view key, std::string_view def) const {
  const SpecValue* v = find(key);
  if (v == nullptr) return parse(std::string(def));
  return v->as_spec();
}

void Spec::set(std::string key, SpecValue value) {
  if (key.empty()) {
    throw std::invalid_argument("empty option key in spec '" + name_ + "'");
  }
  // Characters the grammar assigns structural meaning would make print()
  // emit text that parse() reads differently (or rejects) — the round-trip
  // guarantee holds because they cannot enter a Spec in the first place.
  // parse() never produces them in keys/scalars; this guards programmatic
  // construction (SpecBuilder and direct set()).
  if (key.find_first_of("[],=:") != std::string::npos) {
    throw std::invalid_argument("option key '" + key +
                                "' contains a spec metacharacter ([],=:)");
  }
  if (!value.is_spec() &&
      value.scalar().find_first_of("[],:") != std::string::npos) {
    throw std::invalid_argument(
        "scalar value '" + value.scalar() + "' for option '" + key +
        "' contains a spec metacharacter ([],:) — wrap nested specs in a "
        "Spec value instead");
  }
  if (has(key)) {
    throw std::invalid_argument("duplicate spec option '" + key + "'");
  }
  options_.emplace_back(std::move(key), std::move(value));
}

}  // namespace renamelib::api
