// The three workloads. Each is a fixed cell list derived only from the
// benchmark's --seed: the simulator receives nothing but the specs.
#include <string>
#include <vector>

#include "bench.h"
#include "sim/sweep/cloud.h"
#include "sim/sweep/patterns.h"
#include "sim/sweep/speckey.h"

namespace hb {

using ht::AttackKind;
using ht::DefenseKind;
using ht::HwMitigationKind;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

const std::vector<TaxonomyRow>& TaxonomyRows() {
  static const std::vector<TaxonomyRow> rows = {
      {"none", DefenseKind::kNone, HwMitigationKind::kNone, false, false, false},
      {"trr-only", DefenseKind::kNone, HwMitigationKind::kNone, false, false, true},
      {"subarray-isolation", DefenseKind::kNone, HwMitigationKind::kNone, true, false, false},
      {"guard-rows", DefenseKind::kNone, HwMitigationKind::kNone, false, true, false},
      {"act-remap", DefenseKind::kActRemap, HwMitigationKind::kNone, false, false, false},
      {"cache-lock", DefenseKind::kCacheLock, HwMitigationKind::kNone, false, false, false},
      {"blockhammer", DefenseKind::kNone, HwMitigationKind::kBlockHammer, false, false, false},
      {"sw-refresh", DefenseKind::kSwRefresh, HwMitigationKind::kNone, false, false, false},
      {"sw-refresh-refn", DefenseKind::kSwRefreshRefn, HwMitigationKind::kNone, false, false,
       false},
      {"para", DefenseKind::kNone, HwMitigationKind::kPara, false, false, false},
      {"graphene", DefenseKind::kNone, HwMitigationKind::kGraphene, false, false, false},
      {"anvil", DefenseKind::kAnvil, HwMitigationKind::kNone, false, false, false},
  };
  return rows;
}

const std::vector<AttackKind>& TaxonomyAttacks() {
  static const std::vector<AttackKind> attacks = {AttackKind::kDoubleSided,
                                                  AttackKind::kManySided, AttackKind::kDma,
                                                  AttackKind::kAdaptive, AttackKind::kHalfDouble};
  return attacks;
}

ht::ScenarioSpec TaxonomySpec(const TaxonomyRow& row, AttackKind attack, uint64_t seed) {
  ht::ScenarioSpec spec;
  spec.defense = row.defense;
  spec.hw = row.hw;
  spec.attack = attack;
  spec.sides = 16;
  spec.run_cycles =
      attack == AttackKind::kManySided || attack == AttackKind::kHalfDouble ? 3000000 : 1200000;
  if (row.subarray_isolated) {
    spec.system.mc.scheme = ht::InterleaveScheme::kSubarrayIsolated;
    spec.system.alloc = ht::AllocPolicy::kSubarrayAware;
    spec.system.mc.enforce_domain_groups = true;
  }
  if (row.guard_rows) {
    spec.system.alloc = ht::AllocPolicy::kGuardRows;
    spec.system.guard_domains = 2;
    spec.system.guard_blast = spec.system.dram.disturbance.blast_radius;
  }
  if (row.trr) {
    spec.system.dram.trr.enabled = true;
    spec.system.dram.trr.table_entries = 4;
  }
  spec.seed = seed;
  return spec;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"taxonomy", "cloud", "pattern"};
  return names;
}

namespace {

// Cloud: the hammercloud default grid (4 families x {double-sided,
// pattern}, 1024 tenants x 4 pages, 2% churn, 8 epochs, `cloud` mix,
// 2M cycles) over three consecutive scenario seeds.
constexpr uint64_t kCloudSeeds = 3;
// Pattern: hammerpattern's grid, 48 PatternBuilder seeds x 4 TRR vendors.
constexpr uint64_t kPatternSeeds = 48;

std::vector<Cell> TaxonomyCells(uint64_t seed) {
  std::vector<Cell> cells;
  for (size_t r = 0; r < TaxonomyRows().size(); ++r) {
    for (size_t a = 0; a < TaxonomyAttacks().size(); ++a) {
      Cell cell;
      cell.key = std::string(TaxonomyRows()[r].label) + "/" + ht::ToString(TaxonomyAttacks()[a]);
      cell.spec = TaxonomySpec(TaxonomyRows()[r], TaxonomyAttacks()[a], seed);
      cell.row = static_cast<int>(r);
      cell.attack = static_cast<int>(a);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

std::vector<Cell> CampaignCells(const std::vector<ht::SweepCellSpec>& expanded, bool cloud) {
  std::vector<Cell> cells;
  for (const ht::SweepCellSpec& sweep_cell : expanded) {
    Cell cell;
    cell.key = sweep_cell.key;
    cell.spec = sweep_cell.spec;
    if (cloud) {
      cell.family = ht::CloudFamilyNameFor(ht::SpecCanonicalJson(sweep_cell.spec));
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload workload;
  workload.name = name;
  workload.seed = seed;
  if (name == "taxonomy") {
    workload.campaign = Campaign::kTaxonomy;
    workload.cells = TaxonomyCells(seed);
  } else if (name == "cloud") {
    workload.campaign = Campaign::kCloud;
    ht::CloudCampaignGrid grid;
    grid.seeds.clear();
    for (uint64_t i = 1; i <= kCloudSeeds; ++i) {
      grid.seeds.push_back(seed * kCloudSeeds + i);
    }
    workload.cells = CampaignCells(ht::ExpandCloudGrid(grid), /*cloud=*/true);
  } else if (name == "pattern") {
    workload.campaign = Campaign::kPattern;
    ht::PatternCampaignGrid grid;
    grid.pattern_seeds.clear();
    for (uint64_t i = 1; i <= kPatternSeeds; ++i) {
      grid.pattern_seeds.push_back(seed * kPatternSeeds + i);
    }
    grid.scenario_seed = seed;
    workload.cells = CampaignCells(ht::ExpandPatternGrid(grid), /*cloud=*/false);
  } else {
    return std::nullopt;
  }
  return workload;
}

}  // namespace hb
