#include "sim/sweep/speckey.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <type_traits>

#include "common/telemetry/report.h"

namespace ht {
namespace {

// Enum decode tables for the system-shape knobs that have no registry of
// their own; encode always goes through the shared ToString overloads so
// the canonical names cannot drift apart.
constexpr AllocPolicy kAllocPolicies[] = {AllocPolicy::kLinear, AllocPolicy::kBankAware,
                                          AllocPolicy::kGuardRows, AllocPolicy::kSubarrayAware};
constexpr InterleaveScheme kSchemes[] = {InterleaveScheme::kBankSequential,
                                         InterleaveScheme::kCacheLine,
                                         InterleaveScheme::kPermutation,
                                         InterleaveScheme::kSubarrayIsolated};

template <const auto& kKinds>
auto DecodeByName(std::string_view name) -> std::optional<std::decay_t<decltype(kKinds[0])>> {
  for (const auto kind : kKinds) {
    if (name == ToString(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

// Strict member reads over one canonical spec object. The first missing
// or mistyped member (or bad value) sets `error` and later failures keep
// it; a failed read yields a zero value, so a decode reads straight
// through and checks ok() once.
class StrictReader {
 public:
  StrictReader(const JsonValue& json, std::string* error) : json_(json), error_(error) {}

  bool ok() const { return ok_; }
  void Fail(const std::string& what) {
    if (ok_ && error_ != nullptr) {
      *error_ = what;
    }
    ok_ = false;
  }

  uint64_t Uint(const char* name) {
    const JsonValue* member = Member(name, "numeric", IsNumber);
    return member != nullptr ? member->as_uint() : 0;
  }
  uint32_t Uint32(const char* name) { return static_cast<uint32_t>(Uint(name)); }
  double Double(const char* name) {
    const JsonValue* member = Member(name, "numeric", IsNumber);
    return member != nullptr ? member->as_double() : 0.0;
  }
  bool Bool(const char* name) {
    const JsonValue* member = Member(name, "bool", Is<JsonValue::Type::kBool>);
    return member != nullptr && member->as_bool();
  }
  std::string Str(const char* name) {
    const JsonValue* member = Member(name, "string", Is<JsonValue::Type::kString>);
    return member != nullptr ? member->as_string() : std::string();
  }
  // A string member naming a `what` that `decode` knows.
  template <typename Decode>
  auto Named(const char* name, const char* what, Decode decode) {
    const std::string text = Str(name);
    auto kind = decode(text);
    if (!kind.has_value()) {
      Fail(std::string("unknown ") + what + " '" + text + "'");
    }
    return kind.value_or(typename decltype(kind)::value_type{});
  }

 private:
  static bool IsNumber(const JsonValue& value) { return value.is_number(); }
  template <JsonValue::Type kType>
  static bool Is(const JsonValue& value) { return value.type() == kType; }

  const JsonValue* Member(const char* name, const char* type,
                          bool (*has_type)(const JsonValue&)) {
    const JsonValue* member = json_.Find(name);
    if (member == nullptr || !has_type(*member)) {
      Fail(std::string("missing or non-") + type + " member '" + name + "'");
      return nullptr;
    }
    return member;
  }

  const JsonValue& json_;
  std::string* error_;
  bool ok_ = true;
};

}  // namespace

uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

JsonValue SpecCanonicalJson(const ScenarioSpec& spec) {
  JsonValue out = JsonValue::Object();
  out.Set("act_threshold", JsonValue::Uint(spec.act_threshold));
  out.Set("alloc", JsonValue::Str(ToString(spec.system.alloc)));
  out.Set("attack", JsonValue::Str(ToString(spec.attack)));
  out.Set("attacker_slot", JsonValue::Uint(spec.attacker_slot));
  out.Set("benign_corunner", JsonValue::Bool(spec.benign_corunner));
  out.Set("churn", JsonValue::Double(spec.churn_rate));
  out.Set("blast_radius", JsonValue::Uint(spec.system.dram.disturbance.blast_radius));
  out.Set("channels", JsonValue::Uint(spec.system.dram.org.channels));
  out.Set("cores", JsonValue::Uint(spec.system.cores));
  out.Set("cycles", JsonValue::Uint(spec.run_cycles));
  out.Set("defense", JsonValue::Str(ToString(spec.defense)));
  out.Set("dram", JsonValue::Str(spec.system.dram.name));
  out.Set("ecc", JsonValue::Bool(spec.system.dram.ecc.enabled));
  out.Set("enforce_domain_groups", JsonValue::Bool(spec.system.mc.enforce_domain_groups));
  out.Set("epochs", JsonValue::Uint(spec.epochs));
  out.Set("guard_blast", JsonValue::Uint(spec.system.guard_blast));
  out.Set("guard_domains", JsonValue::Uint(spec.system.guard_domains));
  out.Set("hw", JsonValue::Str(ToString(spec.hw)));
  out.Set("mac", JsonValue::Uint(spec.system.dram.disturbance.mac));
  out.Set("mix", JsonValue::Str(spec.traffic_mix));
  out.Set("open_page", JsonValue::Bool(spec.system.mc.open_page));
  out.Set("pages_per_tenant", JsonValue::Uint(spec.pages_per_tenant));
  out.Set("pattern_seed", JsonValue::Uint(spec.pattern_seed));
  out.Set("randomize_reset",
          JsonValue::Str(!spec.randomize_reset.has_value() ? "default"
                         : *spec.randomize_reset         ? "on"
                                                          : "off"));
  out.Set("scheme", JsonValue::Str(ToString(spec.system.mc.scheme)));
  out.Set("seed", JsonValue::Uint(spec.seed));
  out.Set("sides", JsonValue::Uint(spec.sides));
  // Spec-format version (common/telemetry/report.h). Bumping it when
  // canonical members change makes every pre-bump cache entry and report
  // cell key miss, instead of silently resolving to a different spec.
  out.Set("spec_version", JsonValue::Uint(kScenarioSpecVersion));
  out.Set("tenants", JsonValue::Uint(spec.tenants));
  out.Set("trr_entries",
          JsonValue::Uint(spec.system.dram.trr.enabled ? spec.system.dram.trr.table_entries : 0));
  out.Set("trr_per_ref", JsonValue::Uint(spec.system.dram.trr.enabled
                                             ? spec.system.dram.trr.refreshes_per_ref
                                             : 0));
  out.Set("trr_sample", JsonValue::Double(spec.system.dram.trr.enabled
                                              ? spec.system.dram.trr.sample_probability
                                              : 1.0));
  out.Set("victim_slot", JsonValue::Uint(spec.victim_slot));
  return out;
}

std::optional<DramConfig> DramProfileByName(std::string_view name) {
  if (name == DramConfig::SimDefault().name) {
    return DramConfig::SimDefault();
  }
  if (name == DramConfig::Tiny().name) {
    return DramConfig::Tiny();
  }
  for (int generation = 0; generation < 8; ++generation) {
    const DramConfig config = DramConfig::DensityGeneration(generation);
    if (name == config.name) {
      return config;
    }
  }
  return std::nullopt;
}

std::optional<ScenarioSpec> SpecFromCanonicalJson(const JsonValue& json, std::string* error) {
  if (json.type() != JsonValue::Type::kObject) {
    if (error != nullptr) {
      *error = "canonical spec is not an object";
    }
    return std::nullopt;
  }
  StrictReader in(json, error);
  ScenarioSpec spec;
  spec.system.dram = in.Named("dram", "dram profile", DramProfileByName);
  spec.defense = in.Named("defense", "defense", DefenseKindFromString);
  spec.hw = in.Named("hw", "hw mitigation", HwMitigationKindFromString);
  spec.attack = in.Named("attack", "attack", AttackKindFromString);
  spec.system.alloc = in.Named("alloc", "alloc policy", DecodeByName<kAllocPolicies>);
  spec.system.mc.scheme = in.Named("scheme", "interleave scheme", DecodeByName<kSchemes>);
  const std::string reset = in.Str("randomize_reset");
  if (reset == "on" || reset == "off") {
    spec.randomize_reset = reset == "on";
  } else if (reset != "default") {
    in.Fail("bad randomize_reset '" + reset + "'");
  }

  // Version gate: decode is strict (missing member = error), so specs
  // written before a version bump already fail; this check catches the
  // reverse direction (a future format read by an older binary).
  const uint64_t version = in.Uint("spec_version");
  if (version != kScenarioSpecVersion) {
    in.Fail("canonical spec version " + std::to_string(version) + " != supported " +
            std::to_string(kScenarioSpecVersion));
  }

  spec.act_threshold = in.Uint("act_threshold");
  spec.run_cycles = in.Uint("cycles");
  spec.pages_per_tenant = in.Uint("pages_per_tenant");
  spec.pattern_seed = in.Uint("pattern_seed");
  spec.seed = in.Uint("seed");
  spec.traffic_mix = in.Str("mix");
  spec.churn_rate = in.Double("churn");
  spec.epochs = in.Uint32("epochs");
  spec.attacker_slot = in.Uint32("attacker_slot");
  spec.victim_slot = in.Uint32("victim_slot");
  spec.sides = in.Uint32("sides");
  spec.tenants = in.Uint32("tenants");
  spec.system.dram.disturbance.blast_radius = in.Uint32("blast_radius");
  spec.system.dram.disturbance.mac = in.Uint32("mac");
  const uint64_t channels = in.Uint("channels");
  // The address mapper refuses any other count (it would abort later).
  if (channels > UINT32_MAX || !std::has_single_bit(channels)) {
    in.Fail("bad channels " + std::to_string(channels) + " (want a power of two)");
  }
  spec.system.dram.org.channels = static_cast<uint32_t>(channels);
  spec.system.cores = in.Uint32("cores");
  spec.system.guard_blast = in.Uint32("guard_blast");
  spec.system.guard_domains = in.Uint32("guard_domains");
  TrrParams& trr = spec.system.dram.trr;
  const uint64_t trr_entries = in.Uint("trr_entries");
  trr.enabled = trr_entries > 0;
  if (trr.enabled) {
    trr.table_entries = static_cast<uint32_t>(trr_entries);
  }
  const uint64_t trr_per_ref = in.Uint("trr_per_ref");
  if (trr.enabled && trr_per_ref > 0) {
    trr.refreshes_per_ref = static_cast<uint32_t>(trr_per_ref);
  }
  const double trr_sample = in.Double("trr_sample");
  if (trr.enabled) {
    trr.sample_probability = trr_sample;
  }
  spec.benign_corunner = in.Bool("benign_corunner");
  spec.system.dram.ecc.enabled = in.Bool("ecc");
  spec.system.mc.enforce_domain_groups = in.Bool("enforce_domain_groups");
  spec.system.mc.open_page = in.Bool("open_page");
  if (!in.ok()) {
    return std::nullopt;
  }
  return spec;
}

std::string SweepKeyFromJson(const JsonValue& canonical_spec) {
  JsonValue sorted = canonical_spec;
  std::sort(sorted.members().begin(), sorted.members().end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream compact;
  sorted.Dump(compact, /*indent=*/-1);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(compact.str())));
  return hex;
}

std::string SweepKey(const ScenarioSpec& spec) {
  return SweepKeyFromJson(SpecCanonicalJson(spec));
}

}  // namespace ht
