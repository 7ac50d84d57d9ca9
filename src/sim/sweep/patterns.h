// The pattern-fuzzing campaign: drives PatternBuilder seeds across TRR
// vendor configurations on the generic sweep cell executor (RunCells), so
// campaigns inherit sharding, the FNV-keyed result cache, resume, and the
// byte-identical determinism contract, and writes a
// `hammertime.pattern_report.v1` ranking flips-per-pattern per vendor.
//
// The report's `patterns` and `ranking` sections are pure functions of
// the completed cells (each cell's canonical spec carries its
// pattern_seed, DRAM profile, and TRR shape), which is what lets a shard
// merge rebuild the exact unsharded report.
#ifndef HAMMERTIME_SRC_SIM_SWEEP_PATTERNS_H_
#define HAMMERTIME_SRC_SIM_SWEEP_PATTERNS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sweep/sweep.h"

namespace ht {

// One TRR vendor preset: a named (table entries, refreshes-per-REF,
// sample probability) triple. The names are canonical — they appear in
// report ranking groups and on the hammerpattern --trr axis.
struct TrrVendorConfig {
  std::string name;
  bool enabled = false;
  uint32_t table_entries = 0;
  uint32_t refreshes_per_ref = 0;
  double sample_probability = 1.0;
};

// Registry, in declaration order: "none" (TRR off), "tracker-16" (a deep
// deterministic Misra-Gries tracker), "tracker-4" (a shallow one, the E3
// default shape), and "sampler-4" (shallow + probabilistic sampling — the
// config non-uniform patterns are expected to beat).
const std::vector<TrrVendorConfig>& AllTrrVendors();
std::optional<TrrVendorConfig> TrrVendorByName(std::string_view name);
std::string KnownTrrVendors();

// Applies the preset to `dram.trr` (disables TRR for "none").
void ApplyTrrVendor(DramConfig& dram, const TrrVendorConfig& vendor);

// Recovers the vendor name from a canonical spec's trr_entries /
// trr_per_ref / trr_sample members; synthesizes "trr<e>x<r>p<permille>"
// for shapes outside the registry. Used to rebuild ranking groups from
// cells alone.
std::string TrrVendorNameFor(const JsonValue& canonical_spec);

// The campaign grid: pattern seeds x vendor configs, on one scenario
// shape. Defaults mirror ScenarioSpec's.
struct PatternCampaignGrid {
  std::vector<uint64_t> pattern_seeds = {1};
  std::vector<TrrVendorConfig> vendors;  // Empty = AllTrrVendors().
  Cycle run_cycles = 800000;
  uint32_t tenants = 2;
  uint64_t pages_per_tenant = 512;
  uint64_t scenario_seed = 0;  // ScenarioSpec::seed for every cell.
};

// Cross product of seeds x vendors as runnable kPattern cells,
// deduplicated by canonical key and key-sorted (the execution and
// sharding order, exactly like ExpandGrid).
std::vector<SweepCellSpec> ExpandPatternGrid(const PatternCampaignGrid& grid);

// Builds a hammertime.pattern_report.v1 from completed cells: the
// key-sorted cell array plus `patterns` (one summary per distinct
// pattern_seed, rebuilt via BuildScenarioPattern from the cell's DRAM
// profile) and `ranking` (per-vendor groups sorted by name; entries by
// flips desc, then pattern_seed asc).
JsonValue MakePatternReport(uint64_t grid_cells, std::vector<JsonValue> cells);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_SWEEP_PATTERNS_H_
