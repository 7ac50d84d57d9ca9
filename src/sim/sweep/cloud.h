// The cloud-host campaign: benchmarks defense families against
// cross-tenant attacks in a churning multi-tenant population (the
// os/tenant.h cloud mode) on the generic sweep cell executor (RunCells),
// so campaigns inherit sharding, the FNV-keyed result cache, resume, and
// the byte-identical determinism contract, and writes a
// `hammertime.cloud_report.v1` ranking families on blast containment
// (flips escaped per tenant) and tail latency.
//
// The report's `ranking` section is a pure function of the completed
// cells (each cell's canonical spec carries the defense/alloc/scheme
// members a family is recovered from), which is what lets a shard merge
// rebuild the exact unsharded report.
#ifndef HAMMERTIME_SRC_SIM_SWEEP_CLOUD_H_
#define HAMMERTIME_SRC_SIM_SWEEP_CLOUD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sweep/sweep.h"

namespace ht {

// One defense family: a named bundle of the knobs a cloud operator would
// deploy together. The names are canonical — they appear in the report
// ranking and on the hammercloud --families axis.
struct CloudDefenseFamily {
  std::string name;
  DefenseKind defense = DefenseKind::kNone;
  AllocPolicy alloc = AllocPolicy::kLinear;
  InterleaveScheme scheme = InterleaveScheme::kCacheLine;
  bool enforce_domain_groups = false;
};

// Registry, in declaration order: "none" (undefended baseline),
// "isolation" (§4.1: subarray-isolated mapping + subarray-aware
// allocation + enforced domain groups), "frequency" (§4.2 ACT
// wear-leveling into the tenant-aware quarantine pool), and "refresh"
// (§4.3 software victim refresh).
const std::vector<CloudDefenseFamily>& AllCloudDefenseFamilies();
inline std::optional<CloudDefenseFamily> CloudFamilyByName(std::string_view name) {
  return EntryByName(AllCloudDefenseFamilies(), name);
}
inline std::string KnownCloudFamilies() { return EntryNames(AllCloudDefenseFamilies()); }

// Applies the family's knobs to `spec` (defense kind, allocator policy,
// interleave scheme, domain-group enforcement).
void ApplyCloudFamily(ScenarioSpec& spec, const CloudDefenseFamily& family);

// Recovers the family name from a canonical spec's defense / alloc /
// scheme / enforce_domain_groups members; synthesizes
// "<defense>/<alloc>/<scheme>[/dg]" for bundles outside the registry.
// Used to rebuild ranking groups from cells alone.
std::string CloudFamilyNameFor(const JsonValue& canonical_spec);

// The campaign grid: families x attacks x seeds, on one tenant
// population shape. Defaults describe a consolidated host: ~1k tenant
// slots, a heavy-tailed mix, a few percent churn per epoch.
struct CloudCampaignGrid {
  std::vector<CloudDefenseFamily> families;  // Empty = AllCloudDefenseFamilies().
  std::vector<AttackKind> attacks = {AttackKind::kDoubleSided, AttackKind::kPattern};
  std::vector<uint64_t> seeds = {1};  // Scenario seed (and pattern seed for kPattern).
  uint32_t tenants = 1024;
  uint64_t pages_per_tenant = 4;
  double churn_rate = 0.02;
  uint32_t epochs = 8;
  std::string mix = "cloud";
  Cycle run_cycles = 2000000;
};

// Cross product of families x attacks x seeds as runnable cloud cells,
// deduplicated by canonical key and key-sorted (the execution and
// sharding order, exactly like ExpandGrid).
std::vector<SweepCellSpec> ExpandCloudGrid(const CloudCampaignGrid& grid);

// Builds a hammertime.cloud_report.v1 from completed cells: the
// key-sorted cell array plus `ranking` (one aggregate per family,
// ordered best-isolating first: flips-escaped-per-tenant asc, then p99
// read latency asc, then family name).
JsonValue MakeCloudReport(uint64_t grid_cells, std::vector<JsonValue> cells);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_SWEEP_CLOUD_H_
