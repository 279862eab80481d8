// Schema-driven conformance sweep: the registry's typed option schemas are
// themselves part of the public contract, so they are tested *generically* —
// the suite iterates Registry::describe() and asserts, for every registered
// entry of every facet, that
//
//   * the catalog covers the entry (describe() == list(), per facet, with a
//     non-empty summary and a valid family/consistency label),
//   * every declared option is accepted at its boundary values (ints at
//     min and max, pow2 ints at their power-of-two endpoints, enums at
//     every choice, nested specs at their default) — the
//     object actually constructs, so a schema range wider than what the
//     factory tolerates cannot ship,
//   * one undeclared key is rejected with the uniform unknown-key error,
//   * specs round-trip canonically: parse(print(s)).print() == print(s),
//     and scrambled key order converges to the same canonical string.
//
// Because the sweep is driven by the schemas, a new registration (or a new
// option on an existing one) is boundary-tested with zero new test code —
// the same leverage the facet conformance suite gives object semantics,
// applied to the configuration surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"

namespace renamelib::api {
namespace {

/// Constructs `spec` under `entry.facet`; the object's destruction is part
/// of the check (a boundary geometry must not blow up either way).
void expect_constructs(const EntryDescription& entry, const Spec& spec) {
  auto& reg = Registry::global();
  switch (entry.facet) {
    case Facet::kCounter:
      EXPECT_NE(reg.make_counter(spec), nullptr) << spec.print();
      break;
    case Facet::kRenaming:
      EXPECT_NE(reg.make_renaming(spec), nullptr) << spec.print();
      break;
    case Facet::kReadable:
      EXPECT_NE(reg.make_readable(spec), nullptr) << spec.print();
      break;
  }
}

/// One spec per boundary value of `option` (everything else defaulted).
std::vector<Spec> boundary_specs(const EntryDescription& entry,
                                 const OptionSchema& option) {
  std::vector<Spec> out;
  const auto with = [&](std::string value) {
    Spec s(entry.name);
    s.set(option.key, SpecValue(std::move(value)));
    return s;
  };
  switch (option.type) {
    case OptionSchema::Type::kInt:
      out.push_back(with(std::to_string(option.min)));
      out.push_back(with(std::to_string(option.max)));
      break;
    case OptionSchema::Type::kEnum:
      for (const auto& choice : option.choices) out.push_back(with(choice));
      break;
    case OptionSchema::Type::kSpec: {
      Spec s(entry.name);
      s.set(option.key, SpecValue(Spec::parse(option.def)));
      out.push_back(std::move(s));
      break;
    }
  }
  return out;
}

class SchemaSweep : public ::testing::TestWithParam<EntryDescription> {};

struct EntryName {
  std::string operator()(
      const ::testing::TestParamInfo<EntryDescription>& info) const {
    std::string out = info.param.name;
    for (char& c : out) {
      if (c == '-') c = '_';
    }
    return out + "_" + facet_name(info.param.facet)[0] +
           std::to_string(static_cast<int>(info.param.facet));
  }
};

TEST_P(SchemaSweep, CatalogEntryIsComplete) {
  const EntryDescription& entry = GetParam();
  EXPECT_FALSE(entry.summary.empty()) << entry.name;
  EXPECT_NE(std::string(family_name(entry.family)), "?") << entry.name;
  if (entry.facet == Facet::kRenaming) {
    // The renaming facet's contract is uniqueness/tightness, not a
    // consistency level.
    EXPECT_TRUE(entry.consistency.empty()) << entry.name;
  } else {
    EXPECT_FALSE(entry.consistency.empty()) << entry.name;
    EXPECT_NE(entry.consistency, "?") << entry.name;
  }
  for (const auto& option : entry.options) {
    EXPECT_FALSE(option.doc.empty()) << entry.name << ":" << option.key;
    EXPECT_FALSE(option.type_text().empty()) << entry.name << ":" << option.key;
  }
  // describe(facet, name) resolves the same entry.
  const EntryDescription one =
      Registry::global().describe(entry.facet, entry.name);
  EXPECT_EQ(one.name, entry.name);
  EXPECT_EQ(one.options.size(), entry.options.size());
}

TEST_P(SchemaSweep, EveryDeclaredOptionAcceptsItsBoundaryValues) {
  const EntryDescription& entry = GetParam();
  // The bare default spec must construct...
  expect_constructs(entry, Spec(entry.name));
  // ...and so must every option at each of its boundary values: the schema
  // *is* the promise that these geometries work.
  for (const auto& option : entry.options) {
    for (const Spec& spec : boundary_specs(entry, option)) {
      SCOPED_TRACE(spec.print());
      EXPECT_NO_THROW(expect_constructs(entry, spec));
    }
  }
}

TEST_P(SchemaSweep, OneUndeclaredKeyIsRejected) {
  const EntryDescription& entry = GetParam();
  Spec spec(entry.name);
  spec.set("zz_not_a_key", SpecValue("1"));
  try {
    Registry::global().validate(entry.facet, spec);
    FAIL() << entry.name << ": undeclared key accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("zz_not_a_key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid keys"), std::string::npos) << msg;
  }
}

TEST_P(SchemaSweep, SpecsRoundTripCanonically) {
  const EntryDescription& entry = GetParam();
  // A spec exercising every declared option at its default.
  Spec all(entry.name);
  for (const auto& option : entry.options) {
    if (option.type == OptionSchema::Type::kSpec) {
      all.set(option.key, SpecValue(Spec::parse(option.def)));
    } else {
      all.set(option.key, SpecValue(option.def));
    }
  }
  Registry::global().validate(entry.facet, all);
  const std::string canonical = all.print();
  // parse(print) is a fixed point...
  EXPECT_EQ(Spec::parse(canonical).print(), canonical) << entry.name;
  // ...and key order does not matter: feeding the options back in reverse
  // converges to the same canonical string.
  Spec reversed(entry.name);
  for (auto it = all.options().rbegin(); it != all.options().rend(); ++it) {
    reversed.set(it->first, it->second);
  }
  EXPECT_EQ(reversed.print(), canonical) << entry.name;
}

INSTANTIATE_TEST_SUITE_P(Registry, SchemaSweep,
                         ::testing::ValuesIn(Registry::global().describe()),
                         EntryName{});

// ----------------------------------------------------- catalog coverage ---

TEST(RegistryDescribe, CoversEveryRegisteredEntryOfEveryFacet) {
  const auto& reg = Registry::global();
  std::size_t total = 0;
  for (const Facet facet :
       {Facet::kCounter, Facet::kRenaming, Facet::kReadable}) {
    const auto names = reg.list(facet);
    const auto entries = reg.describe(facet);
    ASSERT_EQ(entries.size(), names.size()) << facet_name(facet);
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(entries[i].name, names[i]) << facet_name(facet);
      EXPECT_EQ(entries[i].facet, facet);
    }
    total += names.size();
  }
  EXPECT_EQ(reg.describe().size(), total);
  EXPECT_EQ(reg.list().size(), total);
}

TEST(RegistryDescribe, RenamingFlagsMatchTheInfoTable) {
  const auto& reg = Registry::global();
  for (const auto& entry : reg.describe(Facet::kRenaming)) {
    const RenamingInfo* info = reg.find_renaming(entry.name);
    ASSERT_NE(info, nullptr) << entry.name;
    EXPECT_EQ(entry.adaptive, info->adaptive) << entry.name;
    EXPECT_EQ(entry.reusable, info->reusable) << entry.name;
  }
}

TEST(RegistryDescribe, UnknownNameThrowsTheUniformError) {
  EXPECT_THROW(Registry::global().describe(Facet::kCounter, "no_such"),
               std::invalid_argument);
  try {
    Registry::global().describe(Facet::kCounter, "stripd");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'striped'?"),
              std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------- schema sanity ---

/// A counter entry with just a name and a schema; the factory is never called.
CounterInfo schema_only(std::string name, std::vector<OptionSchema> options) {
  CounterInfo info;
  info.name = std::move(name);
  info.options = std::move(options);
  info.make = [](const Spec&) -> std::unique_ptr<ICounter> { return nullptr; };
  return info;
}

TEST(OptionSchema, RegistrationRejectsMalformedSchemas) {
  Registry reg;  // scratch registry: registration-time checks fire in add_*
  // Enum default outside its choices.
  EXPECT_THROW(reg.add_counter(schema_only(
                   "bad_enum",
                   {OptionSchema::choice("tas", "nope", {"rnd", "hw"}, "d")})),
               std::invalid_argument);
  // Int default outside its range.
  EXPECT_THROW(reg.add_counter(schema_only(
                   "bad_range", {OptionSchema::u64("n", 0, 1, 8, "d")})),
               std::invalid_argument);
  // Duplicate option keys.
  EXPECT_THROW(reg.add_counter(schema_only(
                   "bad_dup", {OptionSchema::u64("n", 1, 1, 8, "d"),
                               OptionSchema::u64("n", 2, 1, 8, "d")})),
               std::invalid_argument);
  // A well-formed schema registers fine in the scratch registry.
  EXPECT_NO_THROW(reg.add_counter(
      schema_only("ok", {OptionSchema::u64("n", 4, 1, 8, "d")})));
}

}  // namespace
}  // namespace renamelib::api
