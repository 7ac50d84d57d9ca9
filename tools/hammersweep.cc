// hammersweep — sharded, resumable parameter sweeps over the scenario API.
//
// Expands a declarative grid (comma-separated axis lists) into
// deduplicated scenario cells, runs this shard's missing cells on the
// worker pool, and writes a `hammertime.sweep_report.v1` document. With
// `--cache-dir` every completed cell is persisted; `--resume` makes a
// re-run execute only the cells the cache does not already hold, and the
// resumed report is byte-identical to an uninterrupted run. The shared
// campaign flags and their handling live in sim/sweep/campaign.h.
//
// Examples:
//   hammersweep --attacks=double-sided,many-sided --defenses=none,para
//               --out sweep.json
//   hammersweep --generations=0,1,2,3,4 --defenses=none,sw-refresh
//               --cache-dir .sweep-cache --resume --out density.json
//   hammersweep --shard 1/2 ... --out shard1.json       # on machine A
//   hammersweep --shard 2/2 ... --out shard2.json       # on machine B
//   hammersweep --merge shard1.json shard2.json --out merged.json
#include <string>
#include <vector>

#include "sim/sweep/campaign.h"

using namespace ht;

namespace {

void DeclareGrid(ArgParser& parser) {
  parser.Option("defenses", "LIST", KnownDefenseKinds(), "none")
      .Option("hw", "LIST", KnownHwMitigationKinds(), "none")
      .Option("attacks", "LIST", KnownAttackKinds(), "double-sided")
      .Option("thresholds", "LIST", "ACT-interrupt thresholds", "256")
      .Option("trr-entries", "LIST", "TRR tracker entries (0 = TRR off)", "0")
      .Option("blast-radii", "LIST", "blast radii (0 = profile default)", "0")
      .Option("generations", "LIST", "density generations 0..4 (-1 = sim default)", "-1")
      .Option("cycles", "LIST", "per-cell cycle budgets", "800000")
      .Option("seeds", "LIST", "RNG perturbation seeds (0 = stock seeds)", "0")
      .Option("sides", "N", "aggressor rows for many-sided", "16")
      .Option("tenants", "N", "tenant count per cell", "2")
      .Option("pages-per-tenant", "N", "pages allocated per tenant", "512")
      .Flag("benign", "victim tenant runs a random co-running workload");
}

bool Expand(const ArgParser& parser, std::vector<SweepCellSpec>* cells, std::string* error) {
  SweepGrid grid;
  std::string bad;
  if (!ParseNames(parser, "defenses", DefenseKindFromString, &grid.defenses, &bad)) {
    *error = "unknown defense " + bad + " (known: " + KnownDefenseKinds() + ")";
    return false;
  }
  if (!ParseNames(parser, "hw", HwMitigationKindFromString, &grid.hw, &bad)) {
    *error = "unknown hw mitigation " + bad + " (known: " + KnownHwMitigationKinds() + ")";
    return false;
  }
  if (!ParseNames(parser, "attacks", AttackKindFromString, &grid.attacks, &bad)) {
    *error = "unknown attack " + bad + " (known: " + KnownAttackKinds() + ")";
    return false;
  }
  grid.act_thresholds = parser.GetUints("thresholds");
  grid.trr_entries.clear();
  for (const uint64_t value : parser.GetUints("trr-entries")) {
    grid.trr_entries.push_back(static_cast<uint32_t>(value));
  }
  grid.blast_radii.clear();
  for (const uint64_t value : parser.GetUints("blast-radii")) {
    grid.blast_radii.push_back(static_cast<uint32_t>(value));
  }
  grid.generations.clear();
  for (const int64_t value : parser.GetInts("generations")) {
    grid.generations.push_back(static_cast<int>(value));
  }
  grid.cycle_budgets = parser.GetUints("cycles");
  grid.seeds = parser.GetUints("seeds");
  grid.sides = static_cast<uint32_t>(parser.GetUint("sides"));
  grid.tenants = static_cast<uint32_t>(parser.GetUint("tenants"));
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  grid.benign_corunner = parser.GetBool("benign");
  *cells = ExpandGrid(grid);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CampaignKind kind = {.program = "hammersweep",
                             .description = "sharded, resumable scenario parameter sweeps",
                             .declare_grid = DeclareGrid,
                             .expand = Expand,
                             .make_report = MakeSweepReport,
                             .validate = ValidateSweepReport};
  return CampaignMain(kind, argc, argv);
}
