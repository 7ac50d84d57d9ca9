// hammertime — command-line experiment runner.
//
// Assembles a full system (DRAM + MC + caches + tenants) from flags, runs
// an attack/defense scenario, and prints the outcome as a table or CSV.
//
// Examples:
//   hammertime --attack=double-sided                       # undefended
//   hammertime --attack=many-sided --sides=16 --trr=4      # TRRespass
//   hammertime --attack=dma --defense=sw-refresh
//   hammertime --defense=subarray-iso --attack=double-sided
//   hammertime --attack=double-sided --hw=blockhammer --csv
//   hammertime --generation=3 --defense=sw-refresh --cycles=2000000
#include <cstdio>
#include <string>

#include "common/argparse.h"
#include "common/table.h"
#include "sim/runner/runner.h"

using namespace ht;

namespace {

int Fail(const std::string& what) {
  std::fprintf(stderr, "hammertime: error: %s (try --help)\n", what.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("hammertime", "Rowhammer mitigation experiment runner");
  parser.Option("attack", "KIND", KnownAttackKinds(), "double-sided")
      .Option("defense", "KIND", KnownDefenseKinds() + ", subarray-iso, guard-rows", "none")
      .Option("hw", "KIND", KnownHwMitigationKinds(), "none")
      .Option("sides", "N", "aggressor rows for many-sided", "16")
      .Option("trr", "N", "enable in-DRAM TRR with an N-entry tracker")
      .Option("generation", "G", "density generation 0..4 (default: sim default)")
      .Option("threshold", "N", "ACT-interrupt threshold", "256")
      .Option("cycles", "N", "simulated DRAM cycles", "1200000")
      .Flag("ecc", "enable SECDED ECC")
      .Flag("refsb", "DDR5-style per-bank refresh")
      .Flag("closed-page", "closed-page (auto-precharge) row policy")
      .Flag("remap", "enable vendor row remapping")
      .Flag("csv", "emit CSV instead of a table")
      .Flag("verbose", "dump raw MC/DRAM statistics afterwards");
  AddRunnerFlags(parser);
  AddTelemetryFlags(parser);
  parser.ParseOrExit(argc, argv);

  const std::string& attack = parser.Get("attack");
  const std::string& defense = parser.Get("defense");
  const std::string& hw = parser.Get("hw");
  ScenarioSpec spec;
  spec.run_cycles = parser.GetUint("cycles");
  spec.sides = static_cast<uint32_t>(parser.GetUint("sides"));
  spec.act_threshold = parser.GetUint("threshold");
  if (parser.Has("generation")) {
    spec.system.dram = DramConfig::DensityGeneration(static_cast<int>(parser.GetInt("generation")));
  }
  if (const uint64_t trr = parser.GetUint("trr"); trr > 0) {
    spec.system.dram.trr.enabled = true;
    spec.system.dram.trr.table_entries = static_cast<uint32_t>(trr);
  }
  spec.system.dram.ecc.enabled = parser.GetBool("ecc");
  spec.system.dram.remap.enabled = parser.GetBool("remap");
  spec.system.dram.retention.per_bank_refresh = parser.GetBool("refsb");
  spec.system.mc.open_page = !parser.GetBool("closed-page");

  if (const auto kind = AttackKindFromString(attack); kind.has_value()) {
    spec.attack = *kind;
  } else {
    return Fail("unknown attack " + attack + " (known: " + KnownAttackKinds() + ")");
  }

  // The two isolation configurations are system-shape choices rather than
  // installable Defense objects, so they sit outside the registry.
  if (defense == "subarray-iso") {
    spec.system.mc.scheme = InterleaveScheme::kSubarrayIsolated;
    spec.system.alloc = AllocPolicy::kSubarrayAware;
    spec.system.mc.enforce_domain_groups = true;
  } else if (defense == "guard-rows") {
    spec.system.alloc = AllocPolicy::kGuardRows;
    spec.system.guard_domains = 2;
    spec.system.guard_blast = spec.system.dram.disturbance.blast_radius;
  } else if (const auto kind = DefenseKindFromString(defense); kind.has_value()) {
    spec.defense = *kind;
  } else {
    return Fail("unknown defense " + defense + " (known: " + KnownDefenseKinds() +
                ", subarray-iso, guard-rows)");
  }

  if (const auto kind = HwMitigationKindFromString(hw); kind.has_value()) {
    spec.hw = *kind;
  } else {
    return Fail("unknown hw mitigation " + hw + " (known: " + KnownHwMitigationKinds() + ")");
  }

  // The runner writes --trace-out/--metrics-out exactly as it does for
  // the benches.
  const unsigned threads = ApplyRunnerFlags(parser);
  const ScenarioResult result = RunScenarios({spec}, threads).front();

  Table table("hammertime: " + attack + " vs " + defense + (hw != "none" ? "+" + hw : ""));
  table.SetHeader({"metric", "value"});
  table.AddRow({"attack planned", result.attack_planned ? "yes" : "no (isolation denied it)"});
  table.AddRow({"flip events", Table::Num(result.security.flip_events)});
  table.AddRow({"cross-domain flips", Table::Num(result.security.cross_domain_flips)});
  table.AddRow({"intra-domain flips", Table::Num(result.security.intra_domain_flips)});
  table.AddRow({"corrupted lines", Table::Num(result.security.corrupted_lines)});
  table.AddRow({"defense interrupts/detections", Table::Num(result.defense_interrupts)});
  table.AddRow({"page migrations", Table::Num(result.page_moves)});
  table.AddRow({"throttle stall-cycles", Table::Num(result.throttle_stalls)});
  table.AddRow({"row-hit rate", Table::Percent(result.perf.row_hit_rate)});
  table.AddRow({"avg read latency (cyc)", Table::Fixed(result.perf.avg_read_latency, 1)});
  table.AddRow({"ops/kcycle", Table::Fixed(result.perf.ops_per_kcycle, 1)});
  if (parser.GetBool("csv")) {
    std::fputs(table.ToCsv().c_str(), stdout);
  } else {
    table.Print();
  }
  if (parser.GetBool("verbose")) {
    // Raw counters for scripting/debugging. RunScenario destroyed the
    // System, so re-run a short verbose pass is not possible; instead
    // verbose mode prints the derived result object fields exhaustively.
    std::printf("\nraw: flips=%llu cross=%llu intra=%llu corrupted=%llu dos=%llu "
                "interrupts=%llu moves=%llu stalls=%llu mitigation_refreshes=%llu "
                "extra_acts=%llu ops=%llu\n",
                static_cast<unsigned long long>(result.security.flip_events),
                static_cast<unsigned long long>(result.security.cross_domain_flips),
                static_cast<unsigned long long>(result.security.intra_domain_flips),
                static_cast<unsigned long long>(result.security.corrupted_lines),
                static_cast<unsigned long long>(result.security.dos_lockups),
                static_cast<unsigned long long>(result.defense_interrupts),
                static_cast<unsigned long long>(result.page_moves),
                static_cast<unsigned long long>(result.throttle_stalls),
                static_cast<unsigned long long>(result.mitigation_refreshes),
                static_cast<unsigned long long>(result.perf.extra_acts),
                static_cast<unsigned long long>(result.perf.ops));
  }
  return 0;
}
