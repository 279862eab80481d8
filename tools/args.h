// The --key=value / --flag command-line parser shared by renamectl and
// fuzzctl. Arguments not starting with "--" are positional; every flag a
// subcommand never asked for is rejected by reject_unknown(), so a typo
// fails loudly instead of silently doing nothing.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace renamelib::cli {

/// Parsed --key=value / --flag command line (argv[from..argc)).
class Args {
 public:
  Args(int argc, char** argv, int from) {
    for (int i = from; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_.emplace_back(arg.substr(2), "");
      } else {
        kv_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    }
  }

  std::optional<std::string> get(const std::string& key) {
    for (auto& [k, v] : kv_) {
      if (k == key) {
        seen_.push_back(k);
        return v;
      }
    }
    return std::nullopt;
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t def) {
    const auto v = get(key);
    if (!v.has_value()) return def;
    // Full-match from_chars: "-1", "10xyz", and "" are usage errors (exit
    // 2), not modular wraps or silent prefixes.
    std::uint64_t out = 0;
    const auto [ptr, ec] =
        std::from_chars(v->data(), v->data() + v->size(), out);
    if (ec != std::errc{} || ptr != v->data() + v->size()) {
      throw std::invalid_argument("--" + key + " needs an unsigned integer, "
                                  "got '" + *v + "'");
    }
    return out;
  }

  bool flag(const std::string& key) { return get(key).has_value(); }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws on flags nobody consumed — typos must not silently no-op.
  void reject_unknown() const {
    for (const auto& [k, v] : kv_) {
      bool used = false;
      for (const auto& s : seen_) used |= (s == k);
      if (!used) throw std::invalid_argument("unknown flag '--" + k + "'");
    }
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
  std::vector<std::string> seen_;
  std::vector<std::string> positional_;
};

}  // namespace renamelib::cli
