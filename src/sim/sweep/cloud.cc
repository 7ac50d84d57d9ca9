#include "sim/sweep/cloud.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

namespace ht {
namespace {

std::vector<CloudDefenseFamily> BuildFamilyRegistry() {
  return {
      {"none", DefenseKind::kNone, AllocPolicy::kLinear, InterleaveScheme::kCacheLine, false},
      {"isolation", DefenseKind::kNone, AllocPolicy::kSubarrayAware,
       InterleaveScheme::kSubarrayIsolated, true},
      {"frequency", DefenseKind::kActRemap, AllocPolicy::kLinear, InterleaveScheme::kCacheLine,
       false},
      {"refresh", DefenseKind::kSwRefresh, AllocPolicy::kLinear, InterleaveScheme::kCacheLine,
       false},
  };
}

bool FieldBool(const JsonValue& object, const char* name) {
  const JsonValue* member = object.Find(name);
  return member != nullptr && member->type() == JsonValue::Type::kBool && member->as_bool();
}

}  // namespace

const std::vector<CloudDefenseFamily>& AllCloudDefenseFamilies() {
  static const std::vector<CloudDefenseFamily> families = BuildFamilyRegistry();
  return families;
}

std::optional<CloudDefenseFamily> CloudFamilyByName(std::string_view name) {
  for (const CloudDefenseFamily& family : AllCloudDefenseFamilies()) {
    if (name == family.name) {
      return family;
    }
  }
  return std::nullopt;
}

std::string KnownCloudFamilies() {
  std::string out;
  for (const CloudDefenseFamily& family : AllCloudDefenseFamilies()) {
    if (!out.empty()) {
      out += ", ";
    }
    out += family.name;
  }
  return out;
}

void ApplyCloudFamily(ScenarioSpec& spec, const CloudDefenseFamily& family) {
  spec.defense = family.defense;
  spec.system.alloc = family.alloc;
  spec.system.mc.scheme = family.scheme;
  spec.system.mc.enforce_domain_groups = family.enforce_domain_groups;
}

std::string CloudFamilyNameFor(const JsonValue& canonical_spec) {
  const std::string defense = FieldStr(canonical_spec, "defense");
  const std::string alloc = FieldStr(canonical_spec, "alloc");
  const std::string scheme = FieldStr(canonical_spec, "scheme");
  const bool enforce = FieldBool(canonical_spec, "enforce_domain_groups");
  for (const CloudDefenseFamily& family : AllCloudDefenseFamilies()) {
    if (defense == ToString(family.defense) && alloc == ToString(family.alloc) &&
        scheme == ToString(family.scheme) && enforce == family.enforce_domain_groups) {
      return family.name;
    }
  }
  // Off-registry bundle: a stable synthesized name keeps ranking groups
  // deterministic without forcing every campaign through the presets.
  std::string name = defense + "/" + alloc + "/" + scheme;
  if (enforce) {
    name += "/dg";
  }
  return name;
}

std::vector<SweepCellSpec> ExpandCloudGrid(const CloudCampaignGrid& grid) {
  const std::vector<CloudDefenseFamily>& families =
      grid.families.empty() ? AllCloudDefenseFamilies() : grid.families;
  std::vector<ScenarioSpec> specs;
  for (const CloudDefenseFamily& family : families) {
    for (const AttackKind attack : grid.attacks) {
      for (const uint64_t seed : grid.seeds) {
        ScenarioSpec& spec = specs.emplace_back();
        ApplyCloudFamily(spec, family);
        spec.attack = attack;
        spec.pattern_seed = attack == AttackKind::kPattern ? seed : 0;
        spec.run_cycles = grid.run_cycles;
        spec.tenants = grid.tenants;
        spec.pages_per_tenant = grid.pages_per_tenant;
        spec.traffic_mix = grid.mix;
        spec.churn_rate = grid.churn_rate;
        spec.epochs = grid.epochs;
        spec.seed = seed;
      }
    }
  }
  return KeyedCells(specs);
}

JsonValue MakeCloudReport(uint64_t grid_cells, std::vector<JsonValue> cells) {
  JsonValue report = MakeCellReport(kCloudReportSchema, grid_cells, std::move(cells));

  // The ranking is derived from the (key-sorted) cells, so a shard merge
  // rebuilds it byte-identically: accumulation happens in key order.
  struct FamilyAggregate {
    uint64_t cells = 0;
    uint64_t escaped_flips = 0;
    uint64_t tenants_hit = 0;
    uint64_t tenant_slots = 0;
    double p99_sum = 0.0;
    double avg_latency_sum = 0.0;
    double ops_per_kcycle_sum = 0.0;
  };
  std::map<std::string, FamilyAggregate> families;
  for (const JsonValue& cell : report.Find("cells")->items()) {
    const JsonValue* spec = cell.Find("spec");
    const JsonValue* result = cell.Find("result");
    if (spec == nullptr || result == nullptr || FieldStr(*spec, "mix").empty()) {
      continue;  // Ranking covers cloud cells only.
    }
    FamilyAggregate& aggregate = families[CloudFamilyNameFor(*spec)];
    aggregate.cells += 1;
    aggregate.escaped_flips += FieldUint(*result, "escaped_flips");
    aggregate.tenants_hit += FieldUint(*result, "tenants_hit");
    aggregate.tenant_slots += FieldUint(*spec, "tenants");
    aggregate.p99_sum += FieldDouble(*result, "p99_read_latency");
    aggregate.avg_latency_sum += FieldDouble(*result, "avg_read_latency");
    aggregate.ops_per_kcycle_sum += FieldDouble(*result, "ops_per_kcycle");
  }

  struct RankEntry {
    std::string family;
    FamilyAggregate aggregate;
    double escapes_per_tenant = 0.0;
    double p99 = 0.0;
  };
  std::vector<RankEntry> ranking_entries;
  ranking_entries.reserve(families.size());
  for (auto& [family, aggregate] : families) {
    RankEntry entry;
    entry.family = family;
    entry.aggregate = aggregate;
    entry.escapes_per_tenant =
        aggregate.tenant_slots == 0
            ? 0.0
            : static_cast<double>(aggregate.escaped_flips) /
                  static_cast<double>(aggregate.tenant_slots);
    entry.p99 = aggregate.cells == 0 ? 0.0 : aggregate.p99_sum / aggregate.cells;
    ranking_entries.push_back(std::move(entry));
  }
  std::sort(ranking_entries.begin(), ranking_entries.end(),
            [](const RankEntry& a, const RankEntry& b) {
              return std::make_tuple(a.escapes_per_tenant, a.p99, a.family) <
                     std::make_tuple(b.escapes_per_tenant, b.p99, b.family);
            });

  JsonValue ranking = JsonValue::Array();
  for (const RankEntry& entry : ranking_entries) {
    const FamilyAggregate& aggregate = entry.aggregate;
    JsonValue item = JsonValue::Object();
    item.Set("family", JsonValue::Str(entry.family));
    item.Set("cells", JsonValue::Uint(aggregate.cells));
    item.Set("flips_escaped_per_tenant", JsonValue::Double(entry.escapes_per_tenant));
    item.Set("escaped_flips", JsonValue::Uint(aggregate.escaped_flips));
    item.Set("tenants_hit", JsonValue::Uint(aggregate.tenants_hit));
    item.Set("p99_read_latency", JsonValue::Double(entry.p99));
    item.Set("avg_read_latency",
             JsonValue::Double(aggregate.cells == 0
                                   ? 0.0
                                   : aggregate.avg_latency_sum / aggregate.cells));
    item.Set("ops_per_kcycle",
             JsonValue::Double(aggregate.cells == 0
                                   ? 0.0
                                   : aggregate.ops_per_kcycle_sum / aggregate.cells));
    ranking.Push(std::move(item));
  }
  report.Set("ranking", std::move(ranking));
  return report;
}

}  // namespace ht
