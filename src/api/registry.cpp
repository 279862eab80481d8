#include "api/registry.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "api/counters.h"
#include "api/leases.h"
#include "api/readables.h"
#include "api/renamings.h"
#include "api/sharded_counters.h"
#include "renaming/bit_batching.h"
#include "renaming/linear_probe.h"
#include "renaming/moir_anderson.h"
#include "renaming/renaming_network.h"
#include "sortnet/bitonic.h"

namespace renamelib::api {

const char* consistency_name(Consistency c) {
  switch (c) {
    case Consistency::kLinearizable: return "linearizable";
    case Consistency::kQuiescent: return "quiescent";
    case Consistency::kDense: return "dense";
    case Consistency::kMonotone: return "monotone";
    case Consistency::kEscrow: return "escrow";
  }
  return "?";
}

const char* family_name(Family f) {
  switch (f) {
    case Family::kRenaming: return "renaming";
    case Family::kFaiCounting: return "fai-counting";
    case Family::kCountingNetwork: return "counting-network";
    case Family::kSharded: return "sharded";
    case Family::kBaseline: return "baseline";
    case Family::kEscrow: return "escrow";
  }
  return "?";
}

const char* facet_name(Facet f) {
  switch (f) {
    case Facet::kCounter: return "counter";
    case Facet::kRenaming: return "renaming";
    case Facet::kReadable: return "readable-counter";
  }
  return "?";
}

Facet facet_from_name(std::string_view name) {
  // Each facet answers to its facet_name() and a short CLI-friendly alias.
  if (name == "counter") return Facet::kCounter;
  if (name == "renaming") return Facet::kRenaming;
  if (name == "readable-counter" || name == "readable") return Facet::kReadable;
  throw std::invalid_argument("unknown facet '" + std::string(name) +
                              "' (valid: counter, renaming, readable)");
}

// ------------------------------------------------------------ OptionSchema

OptionSchema OptionSchema::u64(std::string key, std::uint64_t def,
                               std::uint64_t lo, std::uint64_t hi,
                               std::string doc) {
  OptionSchema o;
  o.key = std::move(key);
  o.type = Type::kInt;
  o.doc = std::move(doc);
  o.def = std::to_string(def);
  o.min = lo;
  o.max = hi;
  return o;
}

OptionSchema OptionSchema::pow2_u64(std::string key, std::uint64_t def,
                                    std::uint64_t lo, std::uint64_t hi,
                                    std::string doc) {
  OptionSchema o = u64(std::move(key), def, lo, hi, std::move(doc));
  o.pow2 = true;
  return o;
}

OptionSchema OptionSchema::choice(std::string key, std::string def,
                                  std::vector<std::string> choices,
                                  std::string doc) {
  OptionSchema o;
  o.key = std::move(key);
  o.type = Type::kEnum;
  o.doc = std::move(doc);
  o.def = std::move(def);
  o.choices = std::move(choices);
  return o;
}

OptionSchema OptionSchema::spec(std::string key, std::string def, Facet facet,
                                std::string doc) {
  OptionSchema o;
  o.key = std::move(key);
  o.type = Type::kSpec;
  o.doc = std::move(doc);
  o.def = std::move(def);
  o.spec_facet = facet;
  return o;
}

std::string OptionSchema::type_text() const {
  switch (type) {
    case Type::kInt: {
      std::string range =
          " in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
      return (pow2 ? "power of two" : "int") + range;
    }
    case Type::kEnum: {
      std::string out = "enum {";
      for (std::size_t i = 0; i < choices.size(); ++i) {
        if (i > 0) out += ", ";
        out += choices[i];
      }
      return out + "}";
    }
    case Type::kSpec:
      return std::string("spec<") + facet_name(spec_facet) + ">";
  }
  return "?";
}

// ------------------------------------------------------------ did-you-mean

namespace {

/// Levenshtein distance, early-capped: anything beyond `cap` returns cap+1.
std::size_t edit_distance(std::string_view a, std::string_view b,
                          std::size_t cap) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > cap) return cap + 1;
  std::vector<std::size_t> row(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t prev = row[0];  // row[j-1][0]
    row[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t up = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1,
                         prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev = up;
    }
  }
  return row[a.size()];
}

/// The closest candidate within edit distance 2 of `got`, or "" — the
/// uniform did-you-mean source for unknown entry names and unknown keys.
std::string closest_within_two(std::string_view got,
                               const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_dist = 3;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(got, c, 2);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

std::string joined(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

std::vector<std::string> schema_keys(const std::vector<OptionSchema>& schema) {
  std::vector<std::string> keys;
  keys.reserve(schema.size());
  for (const auto& o : schema) keys.push_back(o.key);
  return keys;
}

/// Shared unknown-name error: names the facet asked for, suggests the
/// closest name in that facet (typo repair), and — so a wrong make_*() call
/// is a one-read fix — any other facet that does know the name.
[[noreturn]] void throw_unknown(const std::string& name, Facet facet,
                                const std::vector<std::string>& known,
                                const std::vector<Facet>& elsewhere) {
  std::string msg =
      std::string("unknown ") + facet_name(facet) + " '" + name + "'";
  const std::string suggestion = closest_within_two(name, known);
  if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
  if (!known.empty()) {
    msg += " (registered " + std::string(facet_name(facet)) + "s: " +
           joined(known) + ")";
  }
  if (!elsewhere.empty()) {
    msg += " (registered under the ";
    for (std::size_t i = 0; i < elsewhere.size(); ++i) {
      if (i > 0) msg += " and ";
      msg += facet_name(elsewhere[i]);
    }
    msg += " facet" + std::string(elsewhere.size() > 1 ? "s)" : ")");
  }
  throw std::invalid_argument(msg);
}

/// "option 'x' of counter 'striped'" — the uniform error prefix.
std::string option_where(const std::string& key, Facet facet,
                         const std::string& entry) {
  return "option '" + key + "' of " + facet_name(facet) + " '" + entry + "'";
}

std::uint64_t parse_u64_or_throw(const std::string& where,
                                 const std::string& text) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument(where + " must be an unsigned integer, got '" +
                                text + "'");
  }
  return out;
}

bool is_pow2(std::uint64_t v) { return v >= 1 && (v & (v - 1)) == 0; }

/// Checks one option value against its schema (nested specs are validated
/// by the caller, which owns the registry recursion).
void check_value(const OptionSchema& schema, const SpecValue& value,
                 Facet facet, const std::string& entry) {
  const std::string where = option_where(schema.key, facet, entry);
  if (schema.type != OptionSchema::Type::kSpec && value.is_spec()) {
    throw std::invalid_argument(where + " is " + schema.type_text() +
                                ", not a nested spec (got '" + value.print() +
                                "')");
  }
  switch (schema.type) {
    case OptionSchema::Type::kInt: {
      const std::uint64_t v = parse_u64_or_throw(where, value.scalar());
      if (v < schema.min || v > schema.max || (schema.pow2 && !is_pow2(v))) {
        throw std::invalid_argument(where + " must be " + schema.type_text() +
                                    ", got " + value.scalar());
      }
      break;
    }
    case OptionSchema::Type::kEnum: {
      const std::string& s = value.scalar();
      if (std::find(schema.choices.begin(), schema.choices.end(), s) ==
          schema.choices.end()) {
        throw std::invalid_argument(where + " must be one of {" +
                                    joined(schema.choices) + "}, got '" + s +
                                    "'");
      }
      break;
    }
    case OptionSchema::Type::kSpec:
      break;  // caller recurses through the registry
  }
}

/// Registration-time schema sanity: defaults must satisfy their own
/// declared constraints, keys must be unique. Catching a bad schema at
/// registration beats catching it when a user first omits the option.
void check_schema(const std::string& name,
                  const std::vector<OptionSchema>& schema) {
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const OptionSchema& o = schema[i];
    if (o.key.empty()) {
      throw std::invalid_argument("registration '" + name +
                                  "' declares an option with an empty key");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (schema[j].key == o.key) {
        throw std::invalid_argument("registration '" + name +
                                    "' declares option '" + o.key + "' twice");
      }
    }
    const std::string where =
        "registration '" + name + "' option '" + o.key + "' default";
    switch (o.type) {
      case OptionSchema::Type::kInt: {
        const std::uint64_t v = parse_u64_or_throw(where, o.def);
        if (v < o.min || v > o.max || (o.pow2 && !is_pow2(v)) ||
            (o.pow2 && (!is_pow2(o.min) || !is_pow2(o.max)))) {
          throw std::invalid_argument(where + " violates " + o.type_text());
        }
        break;
      }
      case OptionSchema::Type::kEnum:
        if (o.choices.empty() ||
            std::find(o.choices.begin(), o.choices.end(), o.def) ==
                o.choices.end()) {
          throw std::invalid_argument(where + " must be one of its choices");
        }
        break;
      case OptionSchema::Type::kSpec:
        Spec::parse(o.def);  // throws when the default is not a spec
        break;
    }
  }
}

/// Shared "tas=rnd|hw" option: comparator arbitration flavor. The spec is
/// schema-validated before factories run, so the value is one of the two.
renaming::AdaptiveStrongRenaming::Options adaptive_options(const Spec& p) {
  renaming::AdaptiveStrongRenaming::Options options;
  if (p.get("tas", "rnd") == "hw") {
    options.comparators = renaming::AdaptiveComparatorKind::kHardware;
  }
  return options;
}

OptionSchema adaptive_tas_schema() {
  return OptionSchema::choice(
      "tas", "rnd", {"rnd", "hw"},
      "comparator arbitration: randomized two-process TAS or hardware TAS");
}

/// Wraps a native one-shot protocol in the dense-id facet adapter.
std::unique_ptr<IRenaming> one_shot(std::unique_ptr<renaming::IRenaming> impl) {
  return std::make_unique<OneShotRenamingAdapter>(std::move(impl));
}

/// Broker geometry shared by both `lease` facet entries (the `inner` schema
/// differs per facet and is appended at the registration site).
std::vector<OptionSchema> lease_schemas() {
  return {
      OptionSchema::u64("quota", 64, 1, 2048,
                        "positions per leased range (batch size)"),
      OptionSchema::u64("window", 0, 0, 2048,
                        "positions granted per heartbeat advance; 0 = "
                        "quota/4, clamped to the quota"),
      OptionSchema::u64("procs", 128, 1, 4096,
                        "max client pids (one lease slot each)"),
      OptionSchema::u64("pool", 16, 1, 1024,
                        "escrow pool capacity (reclaimed ranges)"),
      OptionSchema::u64("reclaim", 16, 0, 1u << 20,
                        "refills between stale-lease reclaim scans; 0 "
                        "disables in-line reclaim")};
}

lease::LeaseBroker::Options lease_options(const Spec& p) {
  lease::LeaseBroker::Options o;
  o.procs = static_cast<int>(p.get_u64("procs", 128));
  o.quota = static_cast<std::uint32_t>(p.get_u64("quota", 64));
  o.window = static_cast<std::uint32_t>(p.get_u64("window", 0));
  o.pool_slots = static_cast<std::size_t>(p.get_u64("pool", 16));
  o.reclaim_period = p.get_u64("reclaim", 16);
  return o;
}

void register_builtins(Registry& r) {
  // ------------------------------------------------------------ renamings
  r.add_renaming(RenamingInfo{
      .name = "adaptive_strong",
      .summary = "Sec. 6.2 adaptive strong renaming: tight 1..k, polylog k "
                 "steps, unbounded initial namespace",
      .adaptive = true,
      .options = {adaptive_tas_schema()},
      .name_bound = [](int k, const Spec&) { return std::uint64_t(k); },
      .max_requests = [](const Spec&) { return std::numeric_limits<int>::max(); },
      .make = [](const Spec& p) {
        return one_shot(std::make_unique<renaming::AdaptiveStrongRenaming>(
            adaptive_options(p)));
      }});
  r.add_renaming(RenamingInfo{
      .name = "linear_probe",
      .summary = "classic baseline [4,11]: probe TAS 1,2,3,... in order; "
                 "tight 1..k but Theta(k) steps",
      .adaptive = true,
      .options =
          {OptionSchema::u64("cap", 1024, 1, 1u << 20,
                             "probe-array capacity (max total requests)"),
           OptionSchema::choice("tas", "hw", {"hw", "ratrace"},
                                "per-slot test-and-set flavor")},
      .name_bound = [](int k, const Spec&) { return std::uint64_t(k); },
      .max_requests = [](const Spec& p) {
        return static_cast<int>(p.get_u64("cap", 1024));
      },
      .make = [](const Spec& p) {
        return one_shot(std::make_unique<renaming::LinearProbeRenaming>(
            p.get_u64("cap", 1024), /*hardware_tas=*/p.get("tas", "hw") == "hw"));
      }});
  r.add_renaming(RenamingInfo{
      .name = "bit_batching",
      .summary = "Sec. 4 BitBatching: non-adaptive strong renaming into 1..n, "
                 "O(log^2 n) probes w.h.p.",
      .adaptive = false,
      .options = {OptionSchema::u64("n", 64, 2, 1u << 16,
                                    "namespace size (max total requests)"),
                  OptionSchema::choice("tas", "hw", {"hw", "ratrace"},
                                       "per-slot test-and-set flavor")},
      .name_bound = [](int, const Spec& p) { return p.get_u64("n", 64); },
      .max_requests = [](const Spec& p) {
        return static_cast<int>(p.get_u64("n", 64));
      },
      .make = [](const Spec& p) {
        const auto kind = p.get("tas", "hw") == "hw"
                              ? renaming::SlotTasKind::kHardware
                              : renaming::SlotTasKind::kRatRace;
        return one_shot(
            std::make_unique<renaming::BitBatching>(p.get_u64("n", 64), kind));
      }});
  r.add_renaming(RenamingInfo{
      .name = "moir_anderson",
      .summary = "deterministic splitter-grid renaming [5,6,7]: adaptive but "
                 "loose (1..k(k+1)/2), Theta(k) steps",
      .adaptive = true,
      .options = {OptionSchema::u64(
          "n", 64, 1, 1024, "grid side length (max participants)")},
      .name_bound = [](int k, const Spec&) {
        return std::uint64_t(k) * (std::uint64_t(k) + 1) / 2;
      },
      .max_requests = [](const Spec& p) {
        return static_cast<int>(p.get_u64("n", 64));
      },
      .make = [](const Spec& p) {
        return one_shot(
            std::make_unique<renaming::MoirAndersonRenaming>(p.get_u64("n", 64)));
      }});
  r.add_renaming(RenamingInfo{
      .name = "renaming_network",
      .summary = "Sec. 5 renaming network over a bitonic sorting network: "
                 "tight 1..k in every execution, depth-bounded traversals",
      .adaptive = true,
      .options = {OptionSchema::pow2_u64("w", 32, 2, 256,
                                         "network width (max total requests)"),
                  adaptive_tas_schema()},
      .name_bound = [](int k, const Spec&) { return std::uint64_t(k); },
      .max_requests = [](const Spec& p) {
        return static_cast<int>(p.get_u64("w", 32));
      },
      .make = [](const Spec& p) {
        const auto kind = p.get("tas", "rnd") == "rnd"
                              ? renaming::ComparatorKind::kRandomized
                              : renaming::ComparatorKind::kHardware;
        return one_shot(std::make_unique<renaming::RenamingNetwork>(
            sortnet::bitonic_sort(p.get_u64("w", 32)), kind));
      }});
  r.add_renaming(RenamingInfo{
      .name = "longlived",
      .summary = "long-lived renaming (Sec. 9 direction): acquire/release "
                 "over a slot vector, names O(concurrent holders) w.h.p., "
                 "O(log k) expected probes per acquire",
      // The w.h.p. O(k) adaptivity is real but the *every-execution* bound —
      // what name_bound must declare — is the capacity; the dedicated churn
      // test asserts the probabilistic adaptivity.
      .adaptive = false,
      .reusable = true,
      .options = {OptionSchema::u64("cap", 256, 2, 1u << 20,
                                    "slot-vector capacity (max concurrent "
                                    "holders)")},
      .name_bound = [](int, const Spec& p) { return p.get_u64("cap", 256); },
      .max_requests = [](const Spec& p) {
        // Bounds *concurrent holders*: release recycles request budget.
        return static_cast<int>(p.get_u64("cap", 256));
      },
      .make = [](const Spec& p) -> std::unique_ptr<IRenaming> {
        return std::make_unique<LongLivedRenamingAdapter>(
            p.get_u64("cap", 256));
      }});
  {
    auto options = lease_schemas();
    options.push_back(OptionSchema::spec(
        "inner", "longlived", Facet::kRenaming,
        "renaming whose acquires mint one range ticket per quota names"));
    r.add_renaming(RenamingInfo{
        .name = "lease",
        .family = Family::kEscrow,
        .summary = "escrow range-leasing wrapper: pid-local name ranges "
                   "minted from the inner renaming, pid-private release "
                   "recycling, crash-aware lease reclaim (inner= nested)",
        // Names come from quota-sized ranges, so the every-execution bound
        // scales the inner's by the quota — never adaptive-tight.
        .adaptive = false,
        .reusable = true,
        .options = std::move(options),
        .name_bound = [](int k, const Spec& p) {
          const Spec inner = p.get_spec("inner", "longlived");
          const auto* info = Registry::global().find_renaming(inner.name());
          return p.get_u64("quota", 64) * info->name_bound(k, inner);
        },
        .max_requests = [](const Spec& p) {
          // Every mint pins one inner name forever, so the inner's holder
          // budget bounds total tickets; quota names per ticket.
          const Spec inner = p.get_spec("inner", "longlived");
          const auto* info = Registry::global().find_renaming(inner.name());
          const std::uint64_t total =
              p.get_u64("quota", 64) *
              static_cast<std::uint64_t>(info->max_requests(inner));
          const auto cap =
              static_cast<std::uint64_t>(std::numeric_limits<int>::max());
          return static_cast<int>(total > cap ? cap : total);
        },
        .make = [](const Spec& p) -> std::unique_ptr<IRenaming> {
          const Spec inner = p.get_spec("inner", "longlived");
          return std::make_unique<LeasedRenamingAdapter>(
              lease_options(p), Registry::global().make_renaming(inner));
        }});
  }

  // ------------------------------------------------------------- counters
  r.add_counter(CounterInfo{
      .name = "bounded_fai",
      .family = Family::kFaiCounting,
      .summary = "Sec. 8.2 m-valued linearizable fetch-and-increment, "
                 "O(log k log m) expected steps",
      .consistency = Consistency::kLinearizable,
      .options = {OptionSchema::pow2_u64("m", 1024, 2, 1u << 20,
                                         "counter range (max total values)"),
                  adaptive_tas_schema()},
      .make = [](const Spec& p) -> std::unique_ptr<ICounter> {
        return std::make_unique<BoundedFaiCounter>(p.get_u64("m", 1024),
                                                   adaptive_options(p));
      }});
  r.add_counter(CounterInfo{
      .name = "unbounded_fai",
      .family = Family::kFaiCounting,
      .summary = "epoch-chained unbounded linearizable fetch-and-increment "
                 "(Sec. 9 direction), O(log k log v) amortized",
      .consistency = Consistency::kLinearizable,
      .options = {adaptive_tas_schema()},
      .make = [](const Spec& p) -> std::unique_ptr<ICounter> {
        return std::make_unique<UnboundedFaiCounter>(adaptive_options(p));
      }});
  r.add_counter(CounterInfo{
      .name = "naming_counter",
      .family = Family::kFaiCounting,
      .summary = "rename-then-subtract dispenser: dense values, not "
                 "linearizable (Sec. 8.1 argument)",
      .consistency = Consistency::kDense,
      .options = {adaptive_tas_schema()},
      .make = [](const Spec& p) -> std::unique_ptr<ICounter> {
        return std::make_unique<NamingCounter>(adaptive_options(p));
      }});
  r.add_counter(CounterInfo{
      .name = "atomic_fai",
      .family = Family::kBaseline,
      .summary = "single fetch-and-add register: the 1-step/op hardware "
                 "reference point",
      .consistency = Consistency::kLinearizable,
      .options = {},
      .make = [](const Spec&) -> std::unique_ptr<ICounter> {
        return std::make_unique<AtomicFaiCounter>();
      }});
  r.add_counter(CounterInfo{
      .name = "striped",
      .family = Family::kSharded,
      .summary = "cache-line-striped dispenser: spray-routed per-stripe "
                 "fetch&add slots",
      .consistency = Consistency::kQuiescent,
      .options = {OptionSchema::u64("stripes", 64, 1, 4096,
                                    "cache-line-padded fetch&add stripes")},
      .make = [](const Spec& p) -> std::unique_ptr<ICounter> {
        sharded::StripedCounter::Options o;
        o.stripes = p.get_u64("stripes", 64);
        return std::make_unique<StripedCounterAdapter>(o);
      }});
  r.add_counter(CounterInfo{
      .name = "bitonic_countnet",
      .family = Family::kCountingNetwork,
      .summary = "bitonic counting network [26] as a counter: quiescently "
                 "consistent, step property on output wires",
      .consistency = Consistency::kQuiescent,
      .options = {OptionSchema::pow2_u64("w", 16, 2, 256, "network width")},
      .make = [](const Spec& p) -> std::unique_ptr<ICounter> {
        return std::make_unique<CountingNetworkCounter>(
            countnet::CountingNetwork::bitonic(p.get_u64("w", 16)));
      }});
  {
    auto options = lease_schemas();
    options.push_back(OptionSchema::spec(
        "inner", "atomic_fai", Facet::kCounter,
        "dispenser minting one range ticket per quota requests"));
    r.add_counter(CounterInfo{
        .name = "lease",
        .family = Family::kEscrow,
        .summary = "escrow range-leasing wrapper: pid-local serving of "
                   "quota-sized ranges minted from the inner dispenser, "
                   "crash-aware lease reclaim (inner= is a nested spec)",
        .consistency = Consistency::kEscrow,
        .options = std::move(options),
        .make = [](const Spec& p) -> std::unique_ptr<ICounter> {
          const Spec inner = p.get_spec("inner", "atomic_fai");
          return std::make_unique<LeasedCounterAdapter>(
              lease_options(p), Registry::global().make_counter(inner));
        }});
  }

  // ------------------------------------------------------------ readables
  r.add_readable(ReadableInfo{
      .name = "monotone",
      .family = Family::kFaiCounting,
      .summary = "Sec. 8.1 monotone counter: rename then write_max, reads "
                 "between completed and started increments, O(log v) steps",
      .consistency = Consistency::kMonotone,
      .options = {adaptive_tas_schema()},
      .make = [](const Spec& p) -> std::unique_ptr<IReadableCounter> {
        return std::make_unique<MonotoneCounterAdapter>(adaptive_options(p));
      }});
  r.add_readable(ReadableInfo{
      .name = "maxregtree",
      .family = Family::kBaseline,
      .summary = "deterministic linearizable counter of [17]: single-writer "
                 "leaves under a max-register tree, O(log n log m) steps — "
                 "the log factor the monotone counter removes",
      .consistency = Consistency::kLinearizable,
      // cap's ceiling is what constructs in well under a second: the [17]
      // tree is eager in cap, so promising 2^26 here would mean a ~30 s
      // construction at the schema boundary.
      .options = {OptionSchema::u64("n", 64, 1, 4096,
                                    "single-writer leaves (max processes)"),
                  OptionSchema::u64("cap", 1u << 16, 2, 1u << 20,
                                    "max register capacity (max count)")},
      .make = [](const Spec& p) -> std::unique_ptr<IReadableCounter> {
        return std::make_unique<MaxRegTreeCounterAdapter>(
            static_cast<std::size_t>(p.get_u64("n", 64)),
            p.get_u64("cap", 1u << 16));
      }});
  r.add_readable(ReadableInfo{
      .name = "striped",
      .family = Family::kSharded,
      .summary = "striped statistic counter: pid-striped 1-step increments, "
                 "full-collect reads, monotone across non-overlapping reads",
      .consistency = Consistency::kMonotone,
      .options = {OptionSchema::u64("stripes", 64, 1, 4096,
                                    "cache-line-padded increment stripes")},
      .make = [](const Spec& p) -> std::unique_ptr<IReadableCounter> {
        sharded::StripedCounter::Options o;
        o.stripes = p.get_u64("stripes", 64);
        return std::make_unique<StripedStatisticAdapter>(o);
      }});
  r.add_readable(ReadableInfo{
      .name = "bitonic_countnet",
      .family = Family::kCountingNetwork,
      .summary = "bitonic counting network's quiescent read side [26]: one "
                 "token traverse per increment, full exit-count collect per "
                 "read, exact at quiescence",
      .consistency = Consistency::kQuiescent,
      .options = {OptionSchema::pow2_u64("w", 16, 2, 256, "network width")},
      .make = [](const Spec& p) -> std::unique_ptr<IReadableCounter> {
        return std::make_unique<CountnetReadableAdapter>(
            countnet::CountingNetwork::bitonic(p.get_u64("w", 16)));
      }});
}

}  // namespace

// ----------------------------------------------------------------- registry

template <typename Info>
void FacetTable<Info>::add(Info info) {
  if (find(info.name) != nullptr) {
    throw std::invalid_argument("duplicate registration '" + info.name + "'");
  }
  check_schema(info.name, info.options);
  entries_.push_back(std::move(info));
}

template <typename Info>
const Info* FacetTable<Info>::find(std::string_view name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

template <typename Info>
std::vector<std::string> FacetTable<Info>::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

template class FacetTable<CounterInfo>;
template class FacetTable<RenamingInfo>;
template class FacetTable<ReadableInfo>;

Registry& Registry::global() {
  static Registry* instance = [] {
    auto* r = new Registry();
    register_builtins(*r);
    return r;
  }();
  return *instance;
}

void Registry::add_counter(CounterInfo info) { counters_.add(std::move(info)); }
void Registry::add_renaming(RenamingInfo info) {
  renamings_.add(std::move(info));
}
void Registry::add_readable(ReadableInfo info) {
  readables_.add(std::move(info));
}

const CounterInfo* Registry::find_counter(std::string_view name) const {
  return counters_.find(name);
}

const RenamingInfo* Registry::find_renaming(std::string_view name) const {
  return renamings_.find(name);
}

const ReadableInfo* Registry::find_readable(std::string_view name) const {
  return readables_.find(name);
}

std::vector<Facet> Registry::facets_knowing(std::string_view name,
                                            Facet self) const {
  std::vector<Facet> out;
  if (self != Facet::kCounter && counters_.find(name) != nullptr) {
    out.push_back(Facet::kCounter);
  }
  if (self != Facet::kRenaming && renamings_.find(name) != nullptr) {
    out.push_back(Facet::kRenaming);
  }
  if (self != Facet::kReadable && readables_.find(name) != nullptr) {
    out.push_back(Facet::kReadable);
  }
  return out;
}

const std::vector<OptionSchema>& Registry::schema_of(
    Facet facet, std::string_view name) const {
  switch (facet) {
    case Facet::kCounter:
      if (const CounterInfo* info = counters_.find(name)) return info->options;
      break;
    case Facet::kRenaming:
      if (const RenamingInfo* info = renamings_.find(name)) return info->options;
      break;
    case Facet::kReadable:
      if (const ReadableInfo* info = readables_.find(name)) return info->options;
      break;
  }
  throw_unknown(std::string(name), facet, list(facet),
                facets_knowing(name, facet));
}

void Registry::validate(Facet facet, const Spec& spec) const {
  const std::vector<OptionSchema>& schema = schema_of(facet, spec.name());
  for (const auto& [key, value] : spec.options()) {
    const OptionSchema* found = nullptr;
    for (const auto& o : schema) {
      if (o.key == key) {
        found = &o;
        break;
      }
    }
    if (found == nullptr) {
      // A typo'd key should not force the user back to the source: suggest
      // the closest declared key and list all of them.
      const std::vector<std::string> keys = schema_keys(schema);
      std::string msg = "unknown " + option_where(key, facet, spec.name());
      const std::string suggestion = closest_within_two(key, keys);
      if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
      msg += " (valid keys: " +
             (keys.empty() ? "none — this entry takes no options"
                           : joined(keys)) +
             ")";
      throw std::invalid_argument(msg);
    }
    check_value(*found, value, facet, spec.name());
    if (found->type == OptionSchema::Type::kSpec) {
      validate(found->spec_facet, value.as_spec());
    }
  }
}

std::string Registry::canonical(Facet facet, const std::string& spec) const {
  const Spec parsed = Spec::parse(spec);
  validate(facet, parsed);
  return parsed.print();
}

std::unique_ptr<ICounter> Registry::make_counter(const Spec& spec) const {
  validate(Facet::kCounter, spec);
  return counters_.find(spec.name())->make(spec);
}

std::unique_ptr<IRenaming> Registry::make_renaming(const Spec& spec) const {
  validate(Facet::kRenaming, spec);
  return renamings_.find(spec.name())->make(spec);
}

std::unique_ptr<IReadableCounter> Registry::make_readable(
    const Spec& spec) const {
  validate(Facet::kReadable, spec);
  return readables_.find(spec.name())->make(spec);
}

std::unique_ptr<ICounter> Registry::make_counter(const std::string& spec) const {
  return make_counter(Spec::parse(spec));
}

std::unique_ptr<IRenaming> Registry::make_renaming(
    const std::string& spec) const {
  return make_renaming(Spec::parse(spec));
}

std::unique_ptr<IReadableCounter> Registry::make_readable(
    const std::string& spec) const {
  return make_readable(Spec::parse(spec));
}

std::vector<Facet> Registry::facets() const {
  std::vector<Facet> out;
  if (!counters_.entries().empty()) out.push_back(Facet::kCounter);
  if (!renamings_.entries().empty()) out.push_back(Facet::kRenaming);
  if (!readables_.entries().empty()) out.push_back(Facet::kReadable);
  return out;
}

std::vector<std::string> Registry::list(Facet facet) const {
  switch (facet) {
    case Facet::kCounter: return counters_.names();
    case Facet::kRenaming: return renamings_.names();
    case Facet::kReadable: return readables_.names();
  }
  return {};
}

std::vector<std::string> Registry::list() const {
  std::vector<std::string> out;
  for (auto name : renamings_.names()) out.push_back(std::move(name));
  for (auto name : counters_.names()) out.push_back(std::move(name));
  for (auto name : readables_.names()) out.push_back(std::move(name));
  return out;
}

namespace {

EntryDescription describe_entry(const CounterInfo& e) {
  return EntryDescription{.facet = Facet::kCounter,
                          .name = e.name,
                          .family = e.family,
                          .summary = e.summary,
                          .consistency = consistency_name(e.consistency),
                          .options = e.options};
}

EntryDescription describe_entry(const RenamingInfo& e) {
  return EntryDescription{.facet = Facet::kRenaming,
                          .name = e.name,
                          .family = e.family,
                          .summary = e.summary,
                          .consistency = {},  // renamings declare no level
                          .adaptive = e.adaptive,
                          .reusable = e.reusable,
                          .options = e.options};
}

EntryDescription describe_entry(const ReadableInfo& e) {
  return EntryDescription{.facet = Facet::kReadable,
                          .name = e.name,
                          .family = e.family,
                          .summary = e.summary,
                          .consistency = consistency_name(e.consistency),
                          .options = e.options};
}

}  // namespace

std::vector<EntryDescription> Registry::describe(Facet facet) const {
  std::vector<EntryDescription> out;
  switch (facet) {
    case Facet::kCounter:
      for (const auto& e : counters_.entries()) out.push_back(describe_entry(e));
      break;
    case Facet::kRenaming:
      for (const auto& e : renamings_.entries()) {
        out.push_back(describe_entry(e));
      }
      break;
    case Facet::kReadable:
      for (const auto& e : readables_.entries()) {
        out.push_back(describe_entry(e));
      }
      break;
  }
  return out;
}

std::vector<EntryDescription> Registry::describe() const {
  std::vector<EntryDescription> out;
  for (const Facet facet :
       {Facet::kRenaming, Facet::kCounter, Facet::kReadable}) {
    auto part = describe(facet);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

EntryDescription Registry::describe(Facet facet, std::string_view name) const {
  switch (facet) {
    case Facet::kCounter:
      if (const CounterInfo* e = counters_.find(name)) return describe_entry(*e);
      break;
    case Facet::kRenaming:
      if (const RenamingInfo* e = renamings_.find(name)) {
        return describe_entry(*e);
      }
      break;
    case Facet::kReadable:
      if (const ReadableInfo* e = readables_.find(name)) {
        return describe_entry(*e);
      }
      break;
  }
  throw_unknown(std::string(name), facet, list(facet),
                facets_knowing(name, facet));
}

}  // namespace renamelib::api
