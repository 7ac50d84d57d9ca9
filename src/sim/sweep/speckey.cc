#include "sim/sweep/speckey.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

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

template <typename Kind, size_t N>
std::optional<Kind> DecodeByName(const Kind (&kinds)[N], std::string_view name) {
  for (Kind kind : kinds) {
    if (name == ToString(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

bool GetUintField(const JsonValue& json, const char* name, uint64_t* out, std::string* error) {
  const JsonValue* member = json.Find(name);
  if (member == nullptr || !member->is_number()) {
    if (error != nullptr) {
      *error = std::string("missing or non-numeric member '") + name + "'";
    }
    return false;
  }
  *out = member->as_uint();
  return true;
}

bool GetDoubleField(const JsonValue& json, const char* name, double* out, std::string* error) {
  const JsonValue* member = json.Find(name);
  if (member == nullptr || !member->is_number()) {
    if (error != nullptr) {
      *error = std::string("missing or non-numeric member '") + name + "'";
    }
    return false;
  }
  *out = member->as_double();
  return true;
}

bool GetBoolField(const JsonValue& json, const char* name, bool* out, std::string* error) {
  const JsonValue* member = json.Find(name);
  if (member == nullptr || member->type() != JsonValue::Type::kBool) {
    if (error != nullptr) {
      *error = std::string("missing or non-bool member '") + name + "'";
    }
    return false;
  }
  *out = member->as_bool();
  return true;
}

bool GetStringField(const JsonValue& json, const char* name, std::string* out,
                    std::string* error) {
  const JsonValue* member = json.Find(name);
  if (member == nullptr || member->type() != JsonValue::Type::kString) {
    if (error != nullptr) {
      *error = std::string("missing or non-string member '") + name + "'";
    }
    return false;
  }
  *out = member->as_string();
  return true;
}

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
  ScenarioSpec spec;
  uint64_t value = 0;
  bool flag = false;
  std::string text;

  if (!GetStringField(json, "dram", &text, error)) {
    return std::nullopt;
  }
  const std::optional<DramConfig> profile = DramProfileByName(text);
  if (!profile.has_value()) {
    if (error != nullptr) {
      *error = "unknown dram profile '" + text + "'";
    }
    return std::nullopt;
  }
  spec.system.dram = *profile;

  if (!GetStringField(json, "defense", &text, error)) {
    return std::nullopt;
  }
  const auto defense = DefenseKindFromString(text);
  if (!defense.has_value()) {
    if (error != nullptr) {
      *error = "unknown defense '" + text + "'";
    }
    return std::nullopt;
  }
  spec.defense = *defense;

  if (!GetStringField(json, "hw", &text, error)) {
    return std::nullopt;
  }
  const auto hw = HwMitigationKindFromString(text);
  if (!hw.has_value()) {
    if (error != nullptr) {
      *error = "unknown hw mitigation '" + text + "'";
    }
    return std::nullopt;
  }
  spec.hw = *hw;

  if (!GetStringField(json, "attack", &text, error)) {
    return std::nullopt;
  }
  const auto attack = AttackKindFromString(text);
  if (!attack.has_value()) {
    if (error != nullptr) {
      *error = "unknown attack '" + text + "'";
    }
    return std::nullopt;
  }
  spec.attack = *attack;

  if (!GetStringField(json, "alloc", &text, error)) {
    return std::nullopt;
  }
  const auto alloc = DecodeByName(kAllocPolicies, text);
  if (!alloc.has_value()) {
    if (error != nullptr) {
      *error = "unknown alloc policy '" + text + "'";
    }
    return std::nullopt;
  }
  spec.system.alloc = *alloc;

  if (!GetStringField(json, "scheme", &text, error)) {
    return std::nullopt;
  }
  const auto scheme = DecodeByName(kSchemes, text);
  if (!scheme.has_value()) {
    if (error != nullptr) {
      *error = "unknown interleave scheme '" + text + "'";
    }
    return std::nullopt;
  }
  spec.system.mc.scheme = *scheme;

  if (!GetStringField(json, "randomize_reset", &text, error)) {
    return std::nullopt;
  }
  if (text == "default") {
    spec.randomize_reset.reset();
  } else if (text == "on") {
    spec.randomize_reset = true;
  } else if (text == "off") {
    spec.randomize_reset = false;
  } else {
    if (error != nullptr) {
      *error = "bad randomize_reset '" + text + "'";
    }
    return std::nullopt;
  }

  // Version gate: decode is strict (missing member = error), so specs
  // written before a version bump already fail; this check catches the
  // reverse direction (a future format read by an older binary).
  if (!GetUintField(json, "spec_version", &value, error)) {
    return std::nullopt;
  }
  if (value != kScenarioSpecVersion) {
    if (error != nullptr) {
      *error = "canonical spec version " + std::to_string(value) + " != supported " +
               std::to_string(kScenarioSpecVersion);
    }
    return std::nullopt;
  }

  if (!GetUintField(json, "act_threshold", &spec.act_threshold, error) ||
      !GetUintField(json, "cycles", &spec.run_cycles, error) ||
      !GetUintField(json, "pages_per_tenant", &spec.pages_per_tenant, error) ||
      !GetUintField(json, "pattern_seed", &spec.pattern_seed, error) ||
      !GetUintField(json, "seed", &spec.seed, error)) {
    return std::nullopt;
  }
  if (!GetStringField(json, "mix", &spec.traffic_mix, error) ||
      !GetDoubleField(json, "churn", &spec.churn_rate, error)) {
    return std::nullopt;
  }
  if (!GetUintField(json, "epochs", &value, error)) {
    return std::nullopt;
  }
  spec.epochs = static_cast<uint32_t>(value);
  if (!GetUintField(json, "attacker_slot", &value, error)) {
    return std::nullopt;
  }
  spec.attacker_slot = static_cast<uint32_t>(value);
  if (!GetUintField(json, "victim_slot", &value, error)) {
    return std::nullopt;
  }
  spec.victim_slot = static_cast<uint32_t>(value);
  if (!GetUintField(json, "sides", &value, error)) {
    return std::nullopt;
  }
  spec.sides = static_cast<uint32_t>(value);
  if (!GetUintField(json, "tenants", &value, error)) {
    return std::nullopt;
  }
  spec.tenants = static_cast<uint32_t>(value);
  if (!GetUintField(json, "blast_radius", &value, error)) {
    return std::nullopt;
  }
  spec.system.dram.disturbance.blast_radius = static_cast<uint32_t>(value);
  if (!GetUintField(json, "mac", &value, error)) {
    return std::nullopt;
  }
  spec.system.dram.disturbance.mac = static_cast<uint32_t>(value);
  if (!GetUintField(json, "channels", &value, error)) {
    return std::nullopt;
  }
  // The address mapper refuses any other count (it would abort later).
  if (value > UINT32_MAX || !std::has_single_bit(value)) {
    if (error != nullptr) {
      *error = "bad channels " + std::to_string(value) + " (want a power of two)";
    }
    return std::nullopt;
  }
  spec.system.dram.org.channels = static_cast<uint32_t>(value);
  if (!GetUintField(json, "cores", &value, error)) {
    return std::nullopt;
  }
  spec.system.cores = static_cast<uint32_t>(value);
  if (!GetUintField(json, "guard_blast", &value, error)) {
    return std::nullopt;
  }
  spec.system.guard_blast = static_cast<uint32_t>(value);
  if (!GetUintField(json, "guard_domains", &value, error)) {
    return std::nullopt;
  }
  spec.system.guard_domains = static_cast<uint32_t>(value);
  if (!GetUintField(json, "trr_entries", &value, error)) {
    return std::nullopt;
  }
  spec.system.dram.trr.enabled = value > 0;
  if (value > 0) {
    spec.system.dram.trr.table_entries = static_cast<uint32_t>(value);
  }
  if (!GetUintField(json, "trr_per_ref", &value, error)) {
    return std::nullopt;
  }
  if (spec.system.dram.trr.enabled && value > 0) {
    spec.system.dram.trr.refreshes_per_ref = static_cast<uint32_t>(value);
  }
  double sample = 1.0;
  if (!GetDoubleField(json, "trr_sample", &sample, error)) {
    return std::nullopt;
  }
  if (spec.system.dram.trr.enabled) {
    spec.system.dram.trr.sample_probability = sample;
  }
  if (!GetBoolField(json, "benign_corunner", &spec.benign_corunner, error) ||
      !GetBoolField(json, "ecc", &flag, error)) {
    return std::nullopt;
  }
  spec.system.dram.ecc.enabled = flag;
  if (!GetBoolField(json, "enforce_domain_groups", &flag, error)) {
    return std::nullopt;
  }
  spec.system.mc.enforce_domain_groups = flag;
  if (!GetBoolField(json, "open_page", &flag, error)) {
    return std::nullopt;
  }
  spec.system.mc.open_page = flag;
  return spec;
}

std::string SweepKeyFromJson(const JsonValue& canonical_spec) {
  JsonValue sorted = canonical_spec;
  std::sort(sorted.members().begin(), sorted.members().end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream compact;
  sorted.Dump(compact, /*indent=*/-1);
  const uint64_t hash = Fnv1a64(compact.str());
  std::ostringstream hex;
  for (int shift = 60; shift >= 0; shift -= 4) {
    hex << "0123456789abcdef"[(hash >> shift) & 0xF];
  }
  return hex.str();
}

std::string SweepKey(const ScenarioSpec& spec) {
  return SweepKeyFromJson(SpecCanonicalJson(spec));
}

}  // namespace ht
