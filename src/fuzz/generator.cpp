#include "fuzz/generator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace renamelib::fuzz {
namespace {

/// Generation-time ceiling for integer options: schemas allow up to 2^20,
/// but giant geometries (a million probe slots) only make construction slow
/// without reaching new protocol states at fuzz scale.
constexpr std::uint64_t kGenerationCap = 4096;

/// The same ceiling for exploration cases, which construct their object
/// afresh for every enumerated schedule (thousands per case) while their at
/// most 3 x 2 operations touch only a few of its slots, balancers or cells.
constexpr std::uint64_t kExploreCap = 64;

std::uint64_t pow2_at_most(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

bool is_reusable(const api::Registry& reg, const FuzzCase& c) {
  if (c.facet != api::Facet::kRenaming) return false;
  const api::Spec spec = api::Spec::parse(c.spec);
  const auto* info = reg.find_renaming(spec.name());
  return info != nullptr && info->reusable;
}

}  // namespace

Generator::Generator(const api::Registry& registry)
    : registry_(registry), catalog_(registry.describe()) {}

const api::EntryDescription* Generator::entry_of(
    api::Facet facet, const std::string& name) const {
  for (const auto& e : catalog_) {
    if (e.facet == facet && e.name == name) return &e;
  }
  return nullptr;
}

std::string Generator::random_int_value(const api::OptionSchema& o,
                                        Rng& rng) const {
  const std::uint64_t cap = std::max(o.min, std::min(o.max, kGenerationCap));
  if (o.pow2) {
    const std::uint64_t hi = pow2_at_most(cap);
    std::vector<std::uint64_t> candidates{o.min, hi};
    if (o.min * 2 <= hi) candidates.push_back(o.min * 2);
    // A random interior power of two.
    std::uint64_t p = o.min;
    const std::uint64_t steps = rng.below(8);
    for (std::uint64_t i = 0; i < steps && p * 2 <= hi; ++i) p *= 2;
    candidates.push_back(p);
    return std::to_string(candidates[rng.below(candidates.size())]);
  }
  std::vector<std::uint64_t> candidates{o.min, cap};
  if (o.min + 1 <= cap) candidates.push_back(o.min + 1);
  candidates.push_back(o.min + rng.below(cap - o.min + 1));
  return std::to_string(candidates[rng.below(candidates.size())]);
}

api::Spec Generator::random_spec(const api::EntryDescription& entry, Rng& rng,
                                 int depth) const {
  api::Spec spec(entry.name);
  for (const auto& o : entry.options) {
    // Leaving an option out exercises the default path too.
    if (rng.below(10) < 4) continue;
    switch (o.type) {
      case api::OptionSchema::Type::kInt:
        spec.set(o.key, api::SpecValue(random_int_value(o, rng)));
        break;
      case api::OptionSchema::Type::kEnum:
        spec.set(o.key,
                 api::SpecValue(o.choices[rng.below(o.choices.size())]));
        break;
      case api::OptionSchema::Type::kSpec: {
        if (depth >= kMaxSpecDepth) break;  // stay on the default inner
        std::vector<const api::EntryDescription*> pool;
        for (const auto& e : catalog_) {
          if (e.facet == o.spec_facet) pool.push_back(&e);
        }
        if (pool.empty()) break;
        const auto* inner = pool[rng.below(pool.size())];
        spec.set(o.key,
                 api::SpecValue(random_spec(*inner, rng, depth + 1)));
        break;
      }
    }
  }
  return spec;
}

void Generator::random_scenario(FuzzCase& c, Rng& rng) const {
  c.nproc = 1 + static_cast<int>(rng.below(6));
  c.ops_per_proc = 1 + static_cast<int>(rng.below(8));
  c.sched = static_cast<api::Sched>(rng.below(3));
  c.seed = rng.next();
  if (c.nproc > 1 && rng.below(10) < 4) {
    c.max_crashes = 1 + rng.below(static_cast<std::uint64_t>(c.nproc - 1));
    c.crash_step_max = 1 + rng.below(6);
  } else {
    c.max_crashes = 0;
  }
  c.read_period = 1 + static_cast<int>(rng.below(4));
  c.work = Work::kStandard;
  if (c.facet != api::Facet::kReadable && rng.below(12) == 0) {
    c.work = Work::kExplore;
  } else if (c.facet == api::Facet::kRenaming && rng.below(10) < 4) {
    c.work = Work::kChurn;  // sanitize() reverts it for one-shot entries
  }
}

FuzzCase Generator::case_for_entry(const api::EntryDescription& entry,
                                   Rng& rng) const {
  FuzzCase c;
  c.facet = entry.facet;
  c.spec = random_spec(entry, rng, 1).print();
  random_scenario(c, rng);
  sanitize(c);
  return c;
}

FuzzCase Generator::random_case(Rng& rng) const {
  return case_for_entry(catalog_[rng.below(catalog_.size())], rng);
}

FuzzCase Generator::mutate(const FuzzCase& c, Rng& rng) const {
  FuzzCase m = c;
  const int tweaks = 1 + static_cast<int>(rng.below(3));
  for (int t = 0; t < tweaks; ++t) {
    switch (rng.below(9)) {
      case 0:
        m.nproc += static_cast<int>(rng.below(3)) - 1;
        break;
      case 1:
        m.ops_per_proc += static_cast<int>(rng.below(5)) - 2;
        break;
      case 2:
        if (m.max_crashes > 0) {
          m.max_crashes = 0;
        } else if (m.nproc > 1) {
          m.max_crashes = 1 + rng.below(static_cast<std::uint64_t>(m.nproc - 1));
          m.crash_step_max = 1 + rng.below(6);
        }
        break;
      case 3:
        m.seed = rng.next();
        break;
      case 4:
        m.sched = static_cast<api::Sched>(rng.below(3));
        break;
      case 5:
        m.read_period = 1 + static_cast<int>(rng.below(4));
        break;
      case 6:
        m.work = static_cast<Work>(rng.below(3));
        break;
      default: {
        // Re-roll the spec's options (same entry, fresh draw), or regrow it
        // entirely from the schema.
        const api::Spec spec = api::Spec::parse(m.spec);
        const auto* entry = entry_of(m.facet, spec.name());
        if (entry != nullptr) {
          m.spec = random_spec(*entry, rng, 1).print();
        }
        break;
      }
    }
  }
  sanitize(m);
  return m;
}

api::Spec Generator::cap_ints(const api::Spec& spec, api::Facet facet,
                               std::uint64_t cap) const {
  const api::EntryDescription* entry = entry_of(facet, spec.name());
  if (entry == nullptr) return spec;
  api::Spec out(spec.name());
  for (const auto& [key, value] : spec.options()) {
    const auto o = std::find_if(
        entry->options.begin(), entry->options.end(),
        [&key](const api::OptionSchema& s) { return s.key == key; });
    if (o != entry->options.end() && value.is_spec()) {
      out.set(key, api::SpecValue(cap_ints(value.spec(), o->spec_facet, cap)));
    } else if (o != entry->options.end() &&
               o->type == api::OptionSchema::Type::kInt &&
               std::stoull(value.scalar()) > cap) {
      const std::uint64_t v =
          std::max(o->min, o->pow2 ? pow2_at_most(cap) : cap);
      out.set(key, api::SpecValue(std::to_string(v)));
    } else {
      out.set(key, value);
    }
  }
  return out;
}

api::Spec Generator::repair_spec(const api::Spec& spec, api::Facet facet,
                                 int nproc) const {
  api::Spec out(spec.name());
  // The lease nests a same-facet inner whose budget its quota-sized refills
  // multiply.
  const bool is_lease = spec.name() == "lease";
  for (const auto& [key, value] : spec.options()) {
    if (value.is_spec()) {
      const api::Facet inner_facet =
          facet == api::Facet::kRenaming && is_lease ? api::Facet::kRenaming
                                                     : api::Facet::kCounter;
      api::Spec inner = repair_spec(value.spec(), inner_facet, nproc);
      // A bounded inner dispenser under a lease must not saturate mid-run:
      // the broker mints roughly attempted/quota + nproc tickets, and a
      // saturated mint pins the saturating value (duplicates by design). A
      // roomy m keeps every generated geometry within the escrow oracle.
      if (is_lease && inner.name() == "bounded_fai" &&
          inner.get_u64("m", 1024) < 1024) {
        api::Spec roomy(inner.name());
        for (const auto& [ik, iv] : inner.options()) {
          if (ik == "m") continue;
          roomy.set(ik, iv);
        }
        roomy.set("m", api::SpecValue("1024"));
        inner = roomy;
      }
      // Same story for renaming inners: every refill pins one inner name
      // forever, so a tiny request budget (bit_batching:n=2, a small
      // linear_probe/longlived cap) cannot even seat one ticket per client.
      // Lift the budget knob to a roomy floor (all three schemas admit it).
      if (is_lease && inner_facet == api::Facet::kRenaming) {
        const char* budget_key =
            inner.name() == "bit_batching"
                ? "n"
                : (inner.name() == "linear_probe" ||
                           inner.name() == "longlived"
                       ? "cap"
                       : nullptr);
        if (budget_key != nullptr &&
            inner.get_u64(budget_key, 1024) < 1024) {
          api::Spec roomy(inner.name());
          for (const auto& [ik, iv] : inner.options()) {
            if (ik != budget_key) roomy.set(ik, iv);
          }
          roomy.set(budget_key, api::SpecValue("1024"));
          inner = roomy;
        }
      }
      out.set(key, api::SpecValue(inner));
      continue;
    }
    if (is_lease && key == "procs") {
      // The broker aborts on pid >= procs; lift the slot count to the
      // scenario's process count (schema max 4096 is far above any nproc).
      std::uint64_t procs = 128;
      try {
        procs = std::stoull(value.scalar());
      } catch (const std::exception&) {
      }
      if (procs < static_cast<std::uint64_t>(nproc)) {
        procs = static_cast<std::uint64_t>(nproc);
      }
      out.set(key, api::SpecValue(std::to_string(procs)));
      continue;
    }
    out.set(key, value);
  }
  return out;
}

void Generator::sanitize(FuzzCase& c) const {
  c.nproc = std::clamp(c.nproc, 1, 8);
  c.ops_per_proc = std::clamp(c.ops_per_proc, 1, 16);
  c.read_period = std::clamp(c.read_period, 1, 16);
  if (c.nproc <= 1) c.max_crashes = 0;
  if (c.max_crashes >= static_cast<std::size_t>(c.nproc)) {
    c.max_crashes = static_cast<std::size_t>(c.nproc) - 1;
  }
  if (c.crash_step_max < 1) c.crash_step_max = 1;
  if (c.crash_step_max > 64) c.crash_step_max = 64;

  if (c.work == Work::kChurn && !is_reusable(registry_, c)) {
    c.work = Work::kStandard;
  }
  if (c.work == Work::kExplore) {
    if (c.facet == api::Facet::kReadable) c.work = Work::kStandard;
  }
  if (c.work == Work::kExplore) {
    // Exploration enumerates every schedule: keep the tree small, and crash
    // decisions out of it (they would multiply the branching without adding
    // states exploration cannot already reach).
    c.nproc = std::min(c.nproc, 3);
    c.ops_per_proc = std::min(c.ops_per_proc, 2);
    c.max_crashes = 0;
  }

  try {
    api::Spec spec = api::Spec::parse(c.spec);
    if (c.work == Work::kExplore) spec = cap_ints(spec, c.facet, kExploreCap);
    spec = repair_spec(spec, c.facet, c.nproc);
    c.spec = registry_.canonical(c.facet, spec.print());
  } catch (const std::exception&) {
    // Unrepairable spec (never expected from our own generator): fall back
    // to the bare entry name, or the facet's first entry as a last resort.
    try {
      const api::Spec spec = api::Spec::parse(c.spec);
      c.spec = registry_.canonical(c.facet, spec.name());
    } catch (const std::exception&) {
      for (const auto& e : catalog_) {
        if (e.facet == c.facet) {
          c.spec = e.name;
          break;
        }
      }
    }
  }
}

}  // namespace renamelib::fuzz
