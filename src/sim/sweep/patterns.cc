#include "sim/sweep/patterns.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>

#include "attack/pattern.h"

namespace ht {

const std::vector<TrrVendorConfig>& AllTrrVendors() {
  static const std::vector<TrrVendorConfig> vendors = {
      {"none", false, 0, 0, 1.0},
      {"tracker-16", true, 16, 4, 1.0},
      {"tracker-4", true, 4, 2, 1.0},
      {"sampler-4", true, 4, 2, 0.25},
  };
  return vendors;
}

void ApplyTrrVendor(DramConfig& dram, const TrrVendorConfig& vendor) {
  dram.trr.enabled = vendor.enabled;
  if (vendor.enabled) {
    dram.trr.table_entries = vendor.table_entries;
    dram.trr.refreshes_per_ref = vendor.refreshes_per_ref;
    dram.trr.sample_probability = vendor.sample_probability;
  }
}

std::string TrrVendorNameFor(const JsonValue& canonical_spec) {
  const uint64_t entries = FieldUint(canonical_spec, "trr_entries");
  if (entries == 0) {
    return "none";
  }
  const uint64_t per_ref = FieldUint(canonical_spec, "trr_per_ref");
  const double sample = FieldDouble(canonical_spec, "trr_sample", /*fallback=*/1.0);
  for (const TrrVendorConfig& vendor : AllTrrVendors()) {
    if (vendor.enabled && vendor.table_entries == entries &&
        vendor.refreshes_per_ref == per_ref &&
        std::abs(vendor.sample_probability - sample) < 1e-9) {
      return vendor.name;
    }
  }
  // Off-registry TRR shape: a stable synthesized name keeps ranking
  // groups deterministic without forcing every sweep through the presets.
  return "trr" + std::to_string(entries) + "x" + std::to_string(per_ref) + "p" +
         std::to_string(static_cast<uint64_t>(std::lround(sample * 1000.0)));
}

std::vector<SweepCellSpec> ExpandPatternGrid(const PatternCampaignGrid& grid) {
  const std::vector<TrrVendorConfig>& vendors =
      grid.vendors.empty() ? AllTrrVendors() : grid.vendors;
  std::vector<ScenarioSpec> specs;
  for (const TrrVendorConfig& vendor : vendors) {
    for (const uint64_t pattern_seed : grid.pattern_seeds) {
      ScenarioSpec& spec = specs.emplace_back();
      spec.attack = AttackKind::kPattern;
      spec.pattern_seed = pattern_seed;
      ApplyTrrVendor(spec.system.dram, vendor);
      spec.run_cycles = grid.run_cycles;
      spec.tenants = grid.tenants;
      spec.pages_per_tenant = grid.pages_per_tenant;
      spec.seed = grid.scenario_seed;
    }
  }
  return KeyedCells(specs);
}

JsonValue MakePatternReport(uint64_t grid_cells, std::vector<JsonValue> cells) {
  JsonValue report = MakeCellReport(kPatternReportSchema, grid_cells, std::move(cells));

  // Both extra sections are derived from the (key-sorted) cells, so a
  // shard merge rebuilds them byte-identically.
  struct RankEntry {
    uint64_t flips = 0;
    uint64_t pattern_seed = 0;
    std::string key;
    uint64_t cross_domain = 0;
  };
  std::map<std::pair<uint64_t, std::string>, JsonValue> summaries;  // (seed, dram).
  std::map<std::string, std::vector<RankEntry>> vendors;
  for (const JsonValue& cell : report.Find("cells")->items()) {
    const JsonValue* spec = cell.Find("spec");
    const JsonValue* result = cell.Find("result");
    if (spec == nullptr || result == nullptr || FieldStr(*spec, "attack") != "pattern") {
      continue;
    }
    const uint64_t pattern_seed = FieldUint(*spec, "pattern_seed");
    const std::string dram_name = FieldStr(*spec, "dram");
    const auto summary_key = std::make_pair(pattern_seed, dram_name);
    if (summaries.find(summary_key) == summaries.end()) {
      const std::optional<DramConfig> profile = DramProfileByName(dram_name);
      if (profile.has_value()) {
        const HammeringPattern pattern = BuildScenarioPattern(*profile, pattern_seed);
        JsonValue summary = JsonValue::Object();
        summary.Set("pattern_seed", JsonValue::Uint(pattern_seed));
        summary.Set("dram", JsonValue::Str(dram_name));
        summary.Set("frames", JsonValue::Uint(pattern.frames));
        summary.Set("slots_per_frame", JsonValue::Uint(pattern.slots_per_frame));
        summary.Set("num_aggressors", JsonValue::Uint(pattern.num_aggressors));
        summary.Set("num_fillers", JsonValue::Uint(pattern.num_fillers));
        summary.Set("sets", JsonValue::Uint(pattern.sets.size()));
        summaries.emplace(summary_key, std::move(summary));
      }
    }
    RankEntry entry;
    entry.flips = FieldUint(*result, "flip_events");
    entry.pattern_seed = pattern_seed;
    entry.key = cell.Find("key")->as_string();
    entry.cross_domain = FieldUint(*result, "cross_domain_flips");
    vendors[TrrVendorNameFor(*spec)].push_back(entry);
  }

  JsonValue patterns = JsonValue::Array();
  for (auto& [key, summary] : summaries) {  // (seed, dram) ascending.
    patterns.Push(std::move(summary));
  }
  report.Set("patterns", std::move(patterns));

  JsonValue ranking = JsonValue::Array();
  for (auto& [vendor, entries] : vendors) {  // Vendor name ascending.
    std::sort(entries.begin(), entries.end(), [](const RankEntry& a, const RankEntry& b) {
      return std::make_tuple(~a.flips, a.pattern_seed, a.key) <
             std::make_tuple(~b.flips, b.pattern_seed, b.key);
    });
    JsonValue group = JsonValue::Object();
    group.Set("vendor", JsonValue::Str(vendor));
    JsonValue list = JsonValue::Array();
    for (const RankEntry& entry : entries) {
      JsonValue item = JsonValue::Object();
      item.Set("pattern_seed", JsonValue::Uint(entry.pattern_seed));
      item.Set("key", JsonValue::Str(entry.key));
      item.Set("flips", JsonValue::Uint(entry.flips));
      item.Set("cross_domain_flips", JsonValue::Uint(entry.cross_domain));
      list.Push(std::move(item));
    }
    group.Set("entries", std::move(list));
    ranking.Push(std::move(group));
  }
  report.Set("ranking", std::move(ranking));
  return report;
}

}  // namespace ht
