// hammercloud — multi-tenant cloud host isolation campaigns.
//
// Benchmarks defense families (isolation-, frequency-, and
// refresh-centric, plus the undefended baseline) against cross-tenant
// attacks inside a churning tenant population on the sweep cell executor
// and writes a `hammertime.cloud_report.v1` ranking families on flips
// escaped per tenant and p99 read latency. Campaigns are sharded
// (`--shard K/N`), resumable (`--cache-dir`/`--resume`, FNV-keyed cell
// cache), and seed-replayable: the same grid yields a byte-identical
// report across serial, `--threads N`, resumed, and shard-merged runs.
// The shared campaign flags and their handling live in
// sim/sweep/campaign.h.
//
// Examples:
//   hammercloud --tenants 1024 --churn 0.02 --out cloud.json
//   hammercloud --families isolation,frequency,none --seeds 1,2
//               --cache-dir .cloud-cache --resume --out campaign.json
//   hammercloud --shard 1/2 ... --out shard1.htb    # on machine A
//   hammercloud --shard 2/2 ... --out shard2.htb    # on machine B
//   hammercloud --merge shard1.htb shard2.htb --out merged.json
//
// Replaying one interesting cell from a report:
//   hammercloud --families frequency --attacks pattern --seeds 0x2a --out replay.json
#include <cstdio>
#include <string>
#include <vector>

#include "sim/sweep/campaign.h"
#include "sim/sweep/cloud.h"

using namespace ht;

namespace {

void DeclareGrid(ArgParser& parser) {
  parser.Option("families", "LIST", "defense families: " + KnownCloudFamilies(), "")
      .Option("attacks", "LIST", "attack kinds per family: " + KnownAttackKinds(),
              "double-sided,pattern")
      .Option("seeds", "LIST", "explicit scenario seeds to run (overrides --seed-count)")
      .Option("seed-count", "N", "run N consecutive seeds starting at --base-seed", "1")
      .Option("base-seed", "S", "first seed when --seeds is not given", "1")
      .Option("tenants", "N", "tenant slots in the population", "1024")
      .Option("pages-per-tenant", "N", "pages allocated per tenant slot", "4")
      .Option("churn", "RATE", "fraction of eligible slots recycled per epoch", "0.02")
      .Option("epochs", "N", "harvest/churn boundaries per run", "8")
      .Option("mix", "NAME", "tenant traffic mix: " + KnownTenantMixes(), "cloud")
      .Option("cycles", "N", "per-cell cycle budget", "2000000");
}

bool Expand(const ArgParser& parser, std::vector<SweepCellSpec>* cells, std::string* error) {
  CloudCampaignGrid grid;
  std::string bad;
  if (!ParseNames(parser, "families", CloudFamilyByName, &grid.families, &bad)) {
    *error = "unknown family " + bad + " (known: " + KnownCloudFamilies() + ")";
    return false;
  }
  // An empty --attacks= keeps the default attack pair.
  if (!parser.Get("attacks").empty() &&
      !ParseNames(parser, "attacks", AttackKindFromString, &grid.attacks, &bad)) {
    *error = "unknown attack " + bad + " (known: " + KnownAttackKinds() + ")";
    return false;
  }
  if (grid.attacks.empty()) {
    *error = "no attacks (give --attacks)";
    return false;
  }
  grid.seeds = SeedList(parser, "seeds");
  if (grid.seeds.empty()) {
    *error = "no seeds (give --seeds or --seed-count > 0)";
    return false;
  }
  grid.tenants = static_cast<uint32_t>(parser.GetUint("tenants"));
  if (grid.tenants < 2) {
    *error = "--tenants must be at least 2 (attacker + victim slots)";
    return false;
  }
  grid.pages_per_tenant = parser.GetUint("pages-per-tenant");
  const std::string& churn = parser.Get("churn");
  if (!ParseNumberToken(churn, &grid.churn_rate) || grid.churn_rate < 0 ||
      grid.churn_rate > 1) {
    *error = "bad --churn " + churn + " (want a number in [0, 1])";
    return false;
  }
  grid.epochs = static_cast<uint32_t>(parser.GetUint("epochs"));
  grid.mix = parser.Get("mix");
  if (!IsTenantMix(grid.mix)) {
    *error = "unknown mix " + grid.mix + " (known: " + KnownTenantMixes() + ")";
    return false;
  }
  grid.run_cycles = parser.GetUint("cycles");
  *cells = ExpandCloudGrid(grid);
  return true;
}

// The family ranking, best-isolating first.
void PrintRanking(const JsonValue& report) {
  const JsonValue* ranking = report.Find("ranking");
  if (ranking == nullptr) {
    return;
  }
  for (size_t i = 0; i < ranking->size(); ++i) {
    const JsonValue& entry = ranking->at(i);
    std::fprintf(stderr,
                 "hammercloud: #%zu %-12s escapes/tenant %.6f (escaped %llu, "
                 "tenants hit %llu) p99 %.1f\n",
                 i + 1, entry.Find("family")->as_string().c_str(),
                 entry.Find("flips_escaped_per_tenant")->as_double(),
                 static_cast<unsigned long long>(entry.Find("escaped_flips")->as_uint()),
                 static_cast<unsigned long long>(entry.Find("tenants_hit")->as_uint()),
                 entry.Find("p99_read_latency")->as_double());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CampaignKind kind = {
      .program = "hammercloud",
      .description = "sharded, resumable multi-tenant cloud isolation campaigns",
      .declare_grid = DeclareGrid,
      .expand = Expand,
      .make_report = MakeCloudReport,
      .validate = ValidateCloudReport,
      .summarize = PrintRanking};
  return CampaignMain(kind, argc, argv);
}
