// hammerpattern — frequency-domain pattern fuzzing campaigns.
//
// Drives PatternBuilder seeds across TRR vendor configurations on the
// sweep cell executor and writes a `hammertime.pattern_report.v1`
// ranking flips-per-pattern per vendor. Campaigns are sharded
// (`--shard K/N`), resumable (`--cache-dir`/`--resume`, FNV-keyed cell
// cache), and seed-replayable: the same seed list yields a byte-identical
// report across serial, `--threads N`, resumed, and shard-merged runs.
// The shared campaign flags and their handling live in
// sim/sweep/campaign.h.
//
// Examples:
//   hammerpattern --pattern-seeds 1,2,3,4 --out patterns.json
//   hammerpattern --seed-count 32 --base-seed 7 --trr sampler-4,none
//                 --cache-dir .pat-cache --resume --out campaign.json
//   hammerpattern --shard 1/2 ... --out shard1.json    # on machine A
//   hammerpattern --shard 2/2 ... --out shard2.json    # on machine B
//   hammerpattern --merge shard1.json shard2.json --out merged.json
//
// Replaying one interesting seed from a report:
//   hammerpattern --pattern-seeds 0x2a --trr sampler-4 --out replay.json
#include <string>
#include <vector>

#include "sim/sweep/campaign.h"
#include "sim/sweep/patterns.h"

using namespace ht;

namespace {

void DeclareGrid(ArgParser& parser) {
  parser.Option("pattern-seeds", "LIST",
                "explicit PatternBuilder seeds to run (overrides --seed-count)")
      .Option("seed-count", "N", "fuzz N consecutive seeds starting at --base-seed", "8")
      .Option("base-seed", "S", "first seed when --pattern-seeds is not given", "1")
      .Option("trr", "LIST", "TRR vendor configs: " + KnownTrrVendors(), "")
      .Option("cycles", "N", "per-cell cycle budget", "800000")
      .Option("tenants", "N", "tenant count per cell", "2")
      .Option("pages-per-tenant", "N", "pages allocated per tenant", "512")
      .Option("scenario-seed", "S", "RNG perturbation seed applied to every cell (0 = stock)",
              "0");
}

bool Expand(const ArgParser& parser, std::vector<SweepCellSpec>* cells, std::string* error) {
  PatternCampaignGrid grid;
  grid.pattern_seeds = SeedList(parser, "pattern-seeds");
  if (grid.pattern_seeds.empty()) {
    *error = "no pattern seeds (give --pattern-seeds or --seed-count > 0)";
    return false;
  }
  std::string bad;
  if (!ParseNames(parser, "trr", TrrVendorByName, &grid.vendors, &bad)) {
    *error = "unknown TRR vendor " + bad + " (known: " + KnownTrrVendors() + ")";
    return false;
  }
  grid.run_cycles = parser.GetUint("cycles");
  grid.tenants = static_cast<uint32_t>(parser.GetUint("tenants"));
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  grid.scenario_seed = parser.GetUint("scenario-seed");
  *cells = ExpandPatternGrid(grid);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CampaignKind kind = {
      .program = "hammerpattern",
      .description = "sharded, resumable frequency-domain pattern fuzzing campaigns",
      .declare_grid = DeclareGrid,
      .expand = Expand,
      .make_report = MakePatternReport,
      .validate = ValidatePatternReport};
  return CampaignMain(kind, argc, argv);
}
