/// \file
/// \brief The structured Spec AST: first-class, introspectable configuration
/// values for every registry object.
///
/// A spec describes one object as `name[:key=value,...]`. Spec v2 turns that
/// string into data: `Spec::parse` produces an AST — the implementation name
/// plus ordered key→value options, where a value is either a scalar string
/// or a *nested* Spec (bracketed, e.g. `lease:inner=[striped:stripes=8]`)
/// — and `Spec::print` renders the *canonical* text form: keys sorted,
/// nested values bracketed exactly when they carry options. Canonical
/// printing makes specs stable identifiers: two spellings that configure the
/// same object (`lease:procs=4,quota=8` vs `lease:quota=8,procs=4`)
/// print identically, so bench reports match across key reordering and
/// tools/bench_compare.py can pair runs by spec instead of by run label.
///
/// Grammar (full reference: docs/SPEC_GRAMMAR.md):
/// \verbatim
///   spec    ::= name [ ":" option { "," option } ]
///   option  ::= key "=" value
///   value   ::= "[" spec "]"          (nested spec; commas stay inside)
///             | scalar                (no top-level "," or "[ ]";
///                                      a scalar containing ":" is parsed
///                                      as a nested spec)
/// \endverbatim
///
/// `SpecBuilder` is the fluent construction side:
/// \code
///   const Spec s = SpecBuilder("lease")
///                      .opt("quota", 8)
///                      .opt("inner", SpecBuilder("striped").opt("stripes", 8))
///                      .build();
///   s.print();  // "lease:inner=[striped:stripes=8],quota=8"
/// \endcode
///
/// Typed option *validation* (ranges, enums, nested facets) lives with the
/// registry's OptionSchema (api/registry.h); the AST itself only enforces
/// well-formedness: non-empty name, non-empty keys, no duplicate keys,
/// balanced brackets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace renamelib::api {

class Spec;

/// One option value: a scalar string or a nested Spec. Copyable; nested
/// specs are shared immutably, so copies are cheap.
class SpecValue {
 public:
  /// Empty scalar.
  SpecValue() = default;
  /// A scalar value ("8", "hw", ...).
  SpecValue(std::string scalar) : scalar_(std::move(scalar)) {}
  /// \copydoc SpecValue(std::string)
  SpecValue(const char* scalar) : scalar_(scalar) {}
  /// A nested spec value (prints bracketed when it carries options).
  SpecValue(Spec nested);

  /// True iff this value is a nested Spec node.
  bool is_spec() const { return nested_ != nullptr; }

  /// The scalar text; throws std::invalid_argument on a nested value.
  const std::string& scalar() const;
  /// The nested Spec; throws std::invalid_argument on a scalar value.
  const Spec& spec() const;

  /// This value as a Spec: nested values verbatim, scalars promoted through
  /// Spec::parse ("atomic_fai" is the bare-name spec). Throws
  /// std::invalid_argument when the scalar is not a well-formed spec.
  Spec as_spec() const;

  /// Canonical text: scalars verbatim; nested specs bracketed iff they have
  /// options (so `leaf=[striped]` and `leaf=striped` print identically).
  std::string print() const;

 private:
  std::string scalar_;
  std::shared_ptr<const Spec> nested_;
};

/// A parsed spec: implementation name plus ordered key→value options.
class Spec {
 public:
  /// An empty spec (no name); only useful as a default-options carrier.
  Spec() = default;
  /// A bare-name spec with no options.
  explicit Spec(std::string name) : name_(std::move(name)) {}

  /// Parses `text` into an AST; throws std::invalid_argument on malformed
  /// input (empty name, missing '=', duplicate key, unbalanced brackets).
  static Spec parse(const std::string& text);

  /// Canonical text form: `name` or `name:k1=v1,...` with keys sorted
  /// byte-wise ascending and nested values via SpecValue::print. Guarantees
  /// `parse(print(s)).print() == s.print()` for every well-formed spec.
  std::string print() const;

  /// Implementation name (the part before ':').
  const std::string& name() const { return name_; }
  /// All options in the order given (parse preserves the input order;
  /// print() sorts).
  const std::vector<std::pair<std::string, SpecValue>>& options() const {
    return options_;
  }

  /// True iff `key` was given.
  bool has(std::string_view key) const { return find(key) != nullptr; }
  /// The value of `key`, or nullptr when absent.
  const SpecValue* find(std::string_view key) const;

  /// Canonical text of `key`'s value, or `def` when absent.
  std::string get(std::string_view key, std::string_view def) const;
  /// Unsigned value of `key` (throws std::invalid_argument when the value
  /// is nested or not an unsigned integer), or `def` when absent.
  std::uint64_t get_u64(std::string_view key, std::uint64_t def) const;
  /// Nested-spec value of `key` (scalars promoted via SpecValue::as_spec),
  /// or `parse(def)` when absent.
  Spec get_spec(std::string_view key, std::string_view def) const;

  /// Appends an option; throws std::invalid_argument on an empty key, a
  /// duplicate, or a key/scalar containing grammar metacharacters
  /// (brackets, ',', ':'; '=' additionally for keys) — rejecting them here
  /// is what makes the parse(print) round-trip guarantee total.
  void set(std::string key, SpecValue value);

 private:
  std::string name_;
  std::vector<std::pair<std::string, SpecValue>> options_;
};

/// Fluent Spec construction: `SpecBuilder("striped").opt("stripes", 8)`.
/// Converts implicitly to Spec, so builders nest directly as option values.
class SpecBuilder {
 public:
  /// Starts a spec named `name`.
  explicit SpecBuilder(std::string name) : spec_(std::move(name)) {}

  /// Adds a scalar option. Throws std::invalid_argument on a duplicate key.
  SpecBuilder& opt(std::string key, std::string_view value) {
    spec_.set(std::move(key), SpecValue(std::string(value)));
    return *this;
  }
  /// Adds a numeric option (rendered in decimal; bools render as 0/1).
  SpecBuilder& opt(std::string key, std::uint64_t value) {
    spec_.set(std::move(key), SpecValue(std::to_string(value)));
    return *this;
  }
  /// Adds a nested-spec option.
  SpecBuilder& opt(std::string key, Spec nested) {
    spec_.set(std::move(key), SpecValue(std::move(nested)));
    return *this;
  }
  /// \copydoc opt(std::string,Spec)
  SpecBuilder& opt(std::string key, const SpecBuilder& nested) {
    return opt(std::move(key), nested.build());
  }

  /// The built spec.
  Spec build() const { return spec_; }
  /// Canonical text of the built spec (shorthand for build().print()).
  std::string str() const { return spec_.print(); }
  /// Builders convert to Spec wherever one is expected.
  operator Spec() const { return spec_; }

 private:
  Spec spec_;
};

}  // namespace renamelib::api
