/// \file
/// \brief The multi-role object registry: structured spec -> shared object,
/// per facet, with typed option schemas and programmatic introspection.
///
/// One facade for every renaming/counting implementation in the library.
/// The registry is organized by *facet* — the public role an object plays:
///
///   * ICounter          (make_counter)  — value dispensers, next(),
///   * IRenaming         (make_renaming) — acquire/release name objects,
///   * IReadableCounter  (make_readable) — increment/read counters.
///
/// Each facet owns its own factory table; names are unique per facet, not
/// registry-wide, so one implementation may serve several roles under one
/// name (e.g. "striped" is both a dispenser counter and a readable
/// statistic counter). Tests, benches, and examples construct objects from
/// specs and iterate the facet tables instead of hand-wiring concrete
/// classes, turning N objects x M scenarios into N + M — and a new facet
/// joins by adding one Info struct and one table, without touching the
/// existing ones.
///
/// Spec v2 (api/spec.h, full reference: docs/SPEC_GRAMMAR.md): every entry
/// declares a typed OptionSchema per option — kind (int/enum/spec),
/// range or choices, default, one-line doc. The registry validates a parsed
/// Spec against the schema *before* the factory runs, so unknown-name,
/// unknown-key, out-of-range, and wrong-type errors are uniform across all
/// facets: unknown names and keys carry did-you-mean suggestions (edit
/// distance <= 2) plus the valid alternatives, wrong-facet errors name the
/// facet that does know the spec, and nested spec options (e.g.
/// `lease:inner=[striped:stripes=8]`) are validated recursively against
/// their target facet. `describe()` exposes the whole catalog — every
/// entry, every option schema — programmatically; the `renamectl` CLI and
/// docs/SPEC_GRAMMAR.md's key tables are rendered from it.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/counter.h"
#include "api/readable.h"
#include "api/renaming.h"
#include "api/spec.h"

namespace renamelib::api {

/// Implementation family, for enumeration and reporting.
enum class Family {
  kRenaming,         ///< renaming protocols (one-shot and long-lived)
  kFaiCounting,      ///< renaming-derived fetch-and-increment counters
  kCountingNetwork,  ///< balancer networks used as counters
  kSharded,          ///< cache-line-striped sharded counters
  kBaseline,         ///< hardware reference points
  kEscrow,           ///< escrow range-leasing wrappers over inner dispensers
};

/// Human-readable family label ("renaming", "sharded", ...).
const char* family_name(Family f);

/// The public role a registry entry plays — one factory table per facet.
enum class Facet {
  kCounter,   ///< ICounter: value dispensers (next())
  kRenaming,  ///< IRenaming: acquire/release name objects
  kReadable,  ///< IReadableCounter: increment/read counters
};

/// Human-readable facet label ("counter", "renaming", "readable-counter").
const char* facet_name(Facet f);

/// Facet for its facet_name() label; throws std::invalid_argument on an
/// unknown label (the error lists the valid ones).
Facet facet_from_name(std::string_view name);

/// The typed schema of one spec option: what the registry checks before an
/// entry's factory ever sees the Spec. Declared per registration, rendered
/// by Registry::describe() / `renamectl describe` / docs/SPEC_GRAMMAR.md.
struct OptionSchema {
  /// Option value kind.
  enum class Type {
    kInt,   ///< unsigned integer, checked against [min, max] (and pow2)
    kEnum,  ///< one of `choices`
    kSpec,  ///< nested spec, validated against `spec_facet`'s table
  };

  std::string key;          ///< option key
  Type type = Type::kInt;   ///< value kind
  std::string doc;          ///< one-line description
  std::string def;          ///< default, as canonical spec text
  std::uint64_t min = 0;    ///< kInt: smallest accepted value
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();  ///< kInt
  bool pow2 = false;        ///< kInt: additionally require a power of two
  std::vector<std::string> choices;       ///< kEnum: accepted values
  Facet spec_facet = Facet::kCounter;     ///< kSpec: facet resolving the value

  /// An integer option in [lo, hi] with default `def`.
  static OptionSchema u64(std::string key, std::uint64_t def, std::uint64_t lo,
                          std::uint64_t hi, std::string doc);
  /// A power-of-two integer option in [lo, hi] (lo, hi powers of two).
  static OptionSchema pow2_u64(std::string key, std::uint64_t def,
                               std::uint64_t lo, std::uint64_t hi,
                               std::string doc);
  /// An enumerated option; `def` must be one of `choices`.
  static OptionSchema choice(std::string key, std::string def,
                             std::vector<std::string> choices, std::string doc);
  /// A nested-spec option resolved through `facet`'s table.
  static OptionSchema spec(std::string key, std::string def, Facet facet,
                           std::string doc);

  /// Human-readable type+constraint text for catalogs: "int in [1, 4096]",
  /// "power of two in [2, 1024]", "enum {rnd, hw}", "spec<counter>".
  std::string type_text() const;
};

/// Registry entry describing one counter implementation.
struct CounterInfo {
  std::string name;                          ///< spec name, unique per facet
  Family family = Family::kFaiCounting;      ///< family, for enumeration
  std::string summary;                       ///< one-line description
  Consistency consistency = Consistency::kLinearizable;  ///< declared level
  std::vector<OptionSchema> options;         ///< typed option schemas
  /// Factory: constructs the counter from a schema-validated spec.
  std::function<std::unique_ptr<ICounter>(const Spec&)> make;
};

/// Registry entry describing one renaming implementation (IRenaming facet:
/// one-shot protocols behind the dense-id adapter, long-lived natively).
struct RenamingInfo {
  std::string name;                  ///< spec name, unique per facet
  Family family = Family::kRenaming; ///< family, for enumeration
  std::string summary;               ///< one-line description
  bool adaptive = false;  ///< namespace bound depends only on participants k
  bool reusable = false;  ///< release() recycles names (long-lived family)
  std::vector<OptionSchema> options;  ///< typed option schemas
  /// Largest legal name when k dense-id requests run under these options
  /// (for reusable entries: k concurrent holders).
  std::function<std::uint64_t(int k, const Spec&)> name_bound;
  /// Max supported requests under these options (harnesses must not exceed;
  /// for reusable entries this bounds *concurrent holders*, not requests).
  std::function<int(const Spec&)> max_requests;
  /// Factory: constructs the facet object from a schema-validated spec.
  std::function<std::unique_ptr<IRenaming>(const Spec&)> make;
};

/// Registry entry describing one readable (increment/read) counter.
struct ReadableInfo {
  std::string name;                      ///< spec name, unique per facet
  Family family = Family::kFaiCounting;  ///< family, for enumeration
  std::string summary;                   ///< one-line description
  Consistency consistency = Consistency::kMonotone;  ///< declared level
  std::vector<OptionSchema> options;     ///< typed option schemas
  /// Factory: constructs the readable counter from a schema-validated spec.
  std::function<std::unique_ptr<IReadableCounter>(const Spec&)> make;
};

/// One entry of the programmatic catalog (Registry::describe): the
/// facet-independent projection of a registration, option schemas included.
struct EntryDescription {
  Facet facet = Facet::kCounter;  ///< the table this entry lives in
  std::string name;               ///< spec name (unique within the facet)
  Family family = Family::kRenaming;  ///< family, for grouping
  std::string summary;            ///< one-line description
  /// consistency_name() of the declared level; "" for the renaming facet,
  /// whose contract (uniqueness/tightness) is not a consistency level.
  std::string consistency;
  bool adaptive = false;   ///< renaming facet: k-only namespace bound
  bool reusable = false;   ///< renaming facet: release() recycles names
  std::vector<OptionSchema> options;  ///< typed option schemas
};

/// One facet's factory table: registration order preserved, names unique
/// within the table. Info must have `name` and `options` members.
template <typename Info>
class FacetTable {
 public:
  /// Registers an entry; throws std::invalid_argument on a duplicate name
  /// or a malformed schema (e.g. an enum default outside its choices).
  void add(Info info);
  /// Entry for `name`, or nullptr.
  const Info* find(std::string_view name) const;
  /// All entries, in registration order.
  const std::vector<Info>& entries() const { return entries_; }
  /// All entry names, in registration order.
  std::vector<std::string> names() const;

 private:
  std::vector<Info> entries_;
};

/// The spec factory over every registered implementation, keyed by facet.
class Registry {
 public:
  /// The process-wide registry, pre-populated with every built-in
  /// implementation. Safe to extend at startup (not thread-safe to mutate
  /// concurrently with use).
  static Registry& global();

  /// An empty registry (rarely useful; prefer global()).
  Registry() = default;

  /// Registers an entry in the facet's table; throws std::invalid_argument
  /// on a duplicate name within that facet.
  void add_counter(CounterInfo info);
  /// \copydoc add_counter
  void add_renaming(RenamingInfo info);
  /// \copydoc add_counter
  void add_readable(ReadableInfo info);

  /// Constructs from a spec string; throws std::invalid_argument for
  /// malformed specs and for any schema violation (see validate()).
  std::unique_ptr<ICounter> make_counter(const std::string& spec) const;
  /// \copydoc make_counter
  std::unique_ptr<IRenaming> make_renaming(const std::string& spec) const;
  /// \copydoc make_counter
  std::unique_ptr<IReadableCounter> make_readable(const std::string& spec) const;

  /// Constructs from a parsed Spec (validated first); the path nested-spec
  /// options take, so composite factories never re-tokenize.
  std::unique_ptr<ICounter> make_counter(const Spec& spec) const;
  /// \copydoc make_counter(const Spec&)
  std::unique_ptr<IRenaming> make_renaming(const Spec& spec) const;
  /// \copydoc make_counter(const Spec&)
  std::unique_ptr<IReadableCounter> make_readable(const Spec& spec) const;

  /// Validates `spec` against `facet`'s tables and schemas without
  /// constructing: throws std::invalid_argument naming the problem —
  /// unknown name (did-you-mean + other facets knowing it), unknown key
  /// (did-you-mean + valid keys), type/range/enum violations, recursively
  /// for nested spec options.
  void validate(Facet facet, const Spec& spec) const;

  /// validate() + canonical printing: the stable identifier reports and
  /// bench_compare.py match runs by.
  std::string canonical(Facet facet, const std::string& spec) const;

  /// Entry for `name` in the counter facet, or nullptr.
  const CounterInfo* find_counter(std::string_view name) const;
  /// Entry for `name` in the renaming facet, or nullptr.
  const RenamingInfo* find_renaming(std::string_view name) const;
  /// Entry for `name` in the readable facet, or nullptr.
  const ReadableInfo* find_readable(std::string_view name) const;

  /// All registered counter entries, in registration order.
  const std::vector<CounterInfo>& counters() const {
    return counters_.entries();
  }
  /// All registered renaming entries, in registration order.
  const std::vector<RenamingInfo>& renamings() const {
    return renamings_.entries();
  }
  /// All registered readable entries, in registration order.
  const std::vector<ReadableInfo>& readables() const {
    return readables_.entries();
  }

  /// Every facet with at least one registered entry.
  std::vector<Facet> facets() const;
  /// Every name registered under `facet`, in registration order.
  std::vector<std::string> list(Facet facet) const;
  /// Every registered implementation name across all facets (renamings,
  /// counters, readables; a multi-facet name appears once per facet).
  std::vector<std::string> list() const;

  /// The full catalog: one EntryDescription per registered entry of every
  /// facet (renamings, counters, readables, each in registration order).
  std::vector<EntryDescription> describe() const;
  /// The catalog restricted to `facet`, in registration order.
  std::vector<EntryDescription> describe(Facet facet) const;
  /// The catalog entry for `name` under `facet`; throws the same
  /// unknown-name error as make_*() when absent.
  EntryDescription describe(Facet facet, std::string_view name) const;

 private:
  /// Facets other than `self` that know `name` — feeds the unknown-name
  /// error's "did you mean another facet" hint.
  std::vector<Facet> facets_knowing(std::string_view name, Facet self) const;
  /// Schema of `spec.name()` under `facet`; throws the unknown-name error.
  const std::vector<OptionSchema>& schema_of(Facet facet,
                                             std::string_view name) const;

  FacetTable<CounterInfo> counters_;
  FacetTable<RenamingInfo> renamings_;
  FacetTable<ReadableInfo> readables_;
};

}  // namespace renamelib::api
