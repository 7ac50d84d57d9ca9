// E12 — Ablations on the design choices DESIGN.md calls out.
//
//  (a) REF_NEIGHBORS vs. b individual refresh instructions: DRAM-side
//      occupancy of one victim-refresh action as the blast radius grows.
//  (b) Attack-based subarray-boundary inference (§2.1/§4.1): accuracy
//      with and without vendor row remapping, and the probe cost.
//  (c) Remapping robustness: MC-side logical-neighbour refresh vs. the
//      in-DRAM REF_NEIGHBORS when the device remaps rows internally.
#include <cstdio>
#include <vector>

#include "attack/inference.h"
#include "bench/bench_util.h"
#include "defense/watchset_defense.h"

namespace ht {
namespace {

void RefNeighborsVsInstr() {
  Table table("E12a. One victim-refresh action: command-bus ops and bank-busy cycles vs. blast "
              "radius");
  table.SetHeader({"blast b", "refresh-instr ops (2b rows)", "refresh-instr bank cycles",
                   "REF_NEIGHBORS ops", "REF_NEIGHBORS bank cycles"});
  const DramTiming timing;
  for (uint32_t b : {1u, 2u, 4u, 8u}) {
    // Refresh instruction: per victim row PRE + ACT + PRE, tRP+tRC each.
    const uint64_t instr_ops = 2ull * b * 3;
    const uint64_t instr_cycles = 2ull * b * (timing.tRP + timing.tRC);
    // REF_NEIGHBORS: one command; device walks 2b rows internally.
    const uint64_t refn_ops = 1;
    const uint64_t refn_cycles = 2ull * b * timing.tRC + timing.tRP;
    table.AddRow({Table::Num(uint64_t{b}), Table::Num(instr_ops), Table::Num(instr_cycles),
                  Table::Num(refn_ops), Table::Num(refn_cycles)});
  }
  table.Print();
}

void InferenceAccuracy() {
  Table table("E12b. Attack-based subarray-boundary inference (§2.1): accuracy and cost");
  table.SetHeader({"vendor remapping", "true boundaries", "found", "anomalous edges",
                   "probe ACTs", "flips consumed"});
  for (const bool remap : {false, true}) {
    DramConfig config = DramConfig::Tiny();
    config.org.subarrays_per_bank = 4;
    config.org.rows_per_subarray = 16;
    config.remap.enabled = remap;
    config.remap.remap_fraction = 0.15;
    const SubarrayInference result = InferSubarrayBoundaries(config, 0);
    table.AddRow({Table::YesNo(remap), Table::Num(uint64_t{config.org.subarrays_per_bank - 1}),
                  Table::Num(uint64_t{result.boundaries.size()}),
                  Table::Num(uint64_t{result.anomalies.size()}), Table::Num(result.total_acts),
                  Table::Num(result.flips_observed)});
  }
  table.Print();
}

void RemapRobustness(unsigned threads) {
  Table table("E12c. Victim refresh under vendor row remapping (double-sided, 1.2M cycles, summed over 4 vendor maps)");
  table.SetHeader({"defense", "remap", "cross-domain flips", "notes"});
  struct Case {
    std::string label;
    DefenseKind defense;
    bool remap;
    std::string note;
  };
  const std::vector<Case> cases = {
      {"sw-refresh (MC logical neighbours)", DefenseKind::kSwRefresh, false, "baseline"},
      {"sw-refresh (MC logical neighbours)", DefenseKind::kSwRefresh, true,
       "logical neighbour may not be the internal one"},
      {"sw-refresh + REF_NEIGHBORS", DefenseKind::kSwRefreshRefn, true,
       "device refreshes internal neighbours"},
  };
  // Whether a given sandwich straddles a remapped row is luck of the
  // vendor map; aggregate over several maps so the comparison is not
  // seed noise. Without remapping there is no map variance to aggregate.
  std::vector<ScenarioSpec> specs;
  for (const Case& c : cases) {
    for (uint64_t seed = 1; seed <= (c.remap ? 4 : 1); ++seed) {
      ScenarioSpec spec;
      spec.defense = c.defense;
      spec.attack = AttackKind::kDoubleSided;
      spec.run_cycles = 1200000;
      if (c.remap) {
        spec.system.dram.remap.enabled = true;
        spec.system.dram.remap.remap_fraction = 0.5;
        spec.system.dram.remap.seed = seed;
      }
      specs.push_back(spec);
    }
  }
  const std::vector<ScenarioResult> results = RunScenarios(specs, threads);
  size_t next = 0;
  for (const Case& c : cases) {
    uint64_t flips = 0;
    for (uint64_t seed = 1; seed <= (c.remap ? 4 : 1); ++seed) {
      flips += results[next++].security.cross_domain_flips;
    }
    table.AddRow({c.label, Table::YesNo(c.remap), Table::Num(flips), c.note});
  }
  table.Print();
  std::puts("\nReading: REF_NEIGHBORS collapses a victim-refresh action to one\n"
            "command and stays correct under internal remapping, which is exactly\n"
            "why §4.3 asks DRAM vendors for it as the optional assist.");
}

PerfSummary RunPagePolicy(bool open_page, const std::string& workload,
                          ScenarioTelemetry* telemetry) {
  const Cycle kRun = RunBudget(400000);
  SystemConfig config;
  config.cores = 2;
  config.mc.open_page = open_page;
  JobSystem system(config, telemetry);
  auto tenants = SetupTenants(system, 2, 256);
  for (uint32_t i = 0; i < 2; ++i) {
    system.AssignCore(i, tenants[i],
                      MakeWorkload(workload, tenants[i], AddressSpace::BaseFor(tenants[i]),
                                   256 * kPageBytes, ~0ull >> 1, 61 + i));
  }
  system.RunFor(kRun);
  const PerfSummary perf = Summarize(system, kRun);
  system.Report(kRun);
  return perf;
}

void RowBufferPolicy(unsigned threads) {
  Table table("E12d. Row-buffer policy ablation (open vs. closed page)");
  table.SetHeader({"policy", "benign stream ops/kcycle", "benign random ops/kcycle",
                   "row-hit rate (stream)", "attack flips (double-sided)"});
  // Job 2p is policy p's stream run, job 2p+1 its random run.
  const std::vector<bool> open_pages = {true, false};
  const std::vector<PerfSummary> benign = RunScenarios(
      "e12d", 2 * open_pages.size(),
      [&](size_t i, ScenarioTelemetry* t) {
        return RunPagePolicy(open_pages[i / 2], i % 2 == 0 ? "stream" : "random", t);
      },
      threads);
  std::vector<ScenarioSpec> specs;
  for (const bool open_page : open_pages) {
    ScenarioSpec spec;
    spec.attack = AttackKind::kDoubleSided;
    spec.system.mc.open_page = open_page;
    spec.run_cycles = 1000000;
    specs.push_back(spec);
  }
  const std::vector<ScenarioResult> attacks = RunScenarios(specs, threads);
  for (size_t p = 0; p < open_pages.size(); ++p) {
    const PerfSummary& stream = benign[2 * p];
    table.AddRow({open_pages[p] ? "open-page (default)" : "closed-page (RDA/WRA)",
                  Table::Fixed(stream.ops_per_kcycle, 1),
                  Table::Fixed(benign[2 * p + 1].ops_per_kcycle, 1),
                  Table::Percent(stream.row_hit_rate),
                  Table::Num(attacks[p].security.flip_events)});
  }
  table.Print();
  std::puts("\nReading: closed-page forfeits row-buffer locality (streams suffer most)\n"
            "and does nothing for Rowhammer: the attacker's conflict pattern never\n"
            "hit the row buffer anyway.");
}

void EccAblation(unsigned threads) {
  Table table("E12e. SECDED ECC vs. flip density (double-sided, 1.5M cycles)");
  table.SetHeader({"ECC", "bits/flip-event", "flip events", "corrupted lines read",
                   "ecc corrected", "ecc detected (MCE)", "ecc escaped"});
  std::vector<ScenarioSpec> specs;
  for (const bool ecc : {false, true}) {
    for (const uint32_t bits : {1u, 8u}) {
      ScenarioSpec spec;
      spec.attack = AttackKind::kDoubleSided;
      spec.run_cycles = 1500000;
      spec.system.dram.ecc.enabled = ecc;
      spec.system.dram.disturbance.min_flip_bits = bits;
      spec.system.dram.disturbance.max_flip_bits = bits;
      // Few columns concentrate flips into the same ECC words at the
      // high-density point.
      if (bits > 1) {
        spec.system.dram.org.columns = 16;
      }
      specs.push_back(spec);
    }
  }
  // ECC statistics live on the device; re-deriving them here would need
  // the System, so RunScenario reports corrupted lines and we print the
  // flip/corruption relationship.
  const std::vector<ScenarioResult> results = RunScenarios(specs, threads);
  for (size_t i = 0; i < specs.size(); ++i) {
    table.AddRow({Table::YesNo(specs[i].system.dram.ecc.enabled),
                  Table::Num(uint64_t{specs[i].system.dram.disturbance.max_flip_bits}),
                  Table::Num(results[i].security.flip_events),
                  Table::Num(results[i].security.corrupted_lines), "-", "-", "-"});
  }
  table.Print();
  std::puts("\nReading: with ECC on, low-density flips (1 bit/event) are fully\n"
            "corrected at read time (0 corrupted lines); dense flips overwhelm\n"
            "SECDED - Cojocar et al. [12]'s conclusion that ECC raises the bar\n"
            "but does not stop Rowhammer.");
}

std::vector<std::string> RefreshModeRow(bool per_bank, ScenarioTelemetry* telemetry) {
  const Cycle kRun = RunBudget(600000);
  SystemConfig config;
  config.cores = 4;
  config.dram.retention.per_bank_refresh = per_bank;
  JobSystem system(config, telemetry);
  auto tenants = SetupTenants(system, 4, 256);
  for (uint32_t i = 0; i < 4; ++i) {
    system.AssignCore(i, tenants[i],
                      MakeWorkload("random", tenants[i], AddressSpace::BaseFor(tenants[i]),
                                   256 * kPageBytes, ~0ull >> 1, 81 + i));
  }
  system.RunFor(kRun);
  const PerfSummary perf = Summarize(system, kRun);
  const Histogram* latency = system.mc().stats().GetHistogram("mc.read_latency");
  const uint64_t refs = system.mc().stats().Get("mc.refs_issued") +
                        system.mc().stats().Get("mc.refs_sb_issued");
  system.Report(kRun);
  return {per_bank ? "per-bank (REFsb)" : "all-bank (REF)", Table::Fixed(perf.ops_per_kcycle, 1),
          latency != nullptr ? Table::Num(latency->Quantile(0.99)) : "-", Table::Num(refs),
          Table::Num(system.mc().device(0).CountRetentionViolations(system.now()))};
}

void RefreshModeAblation(unsigned threads) {
  Table table("E12g. Refresh management: all-bank REF vs. DDR5-style same-bank REFsb");
  table.SetHeader({"mode", "ops/kcycle (4x random)", "read p99 (cyc)", "REF cmds",
                   "retention violations"});
  for (const auto& row : RunScenarios(
           "e12g", 2, [](size_t i, ScenarioTelemetry* t) { return RefreshModeRow(i == 1, t); },
           threads)) {
    table.AddRow(row);
  }
  table.Print();
  std::puts("\nReading: REFsb trades one long rank-wide stall for many short per-bank\n"
            "ones: the p99 read latency drops while retention stays clean.");
}

// One coverage setting's table row; empty when the attacker found no plan.
std::vector<std::string> WatchSetRow(bool watched, ScenarioTelemetry* telemetry) {
  const Cycle kRun = RunBudget(1000000);
  SystemConfig config;
  config.cores = 2;
  JobSystem system(config, telemetry);
  auto tenants = SetupTenants(system, 2, 512);
  WatchSetConfig watch_config;
  watch_config.period = 1u << 15;
  auto defense = std::make_unique<WatchSetDefense>(watch_config);
  WatchSetDefense* raw = defense.get();
  system.InstallDefense(std::move(defense));
  if (watched) {
    raw->Watch(tenants[1], AddressSpace::BaseFor(tenants[1]), 512);
  }
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  std::vector<std::string> row;
  if (plan.has_value()) {
    HammerConfig hammer;
    hammer.aggressors = plan->aggressor_vas;
    system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
    system.RunFor(kRun);
    const SecurityOutcome outcome = Assess(system);
    row = {watched ? "victim's region" : "none", Table::Num(outcome.cross_domain_flips),
           Table::Num(system.defense()->stats().Get("defense.watch_refreshes"))};
  }
  system.Report(kRun);
  return row;
}

void WatchSetAblation(unsigned threads) {
  Table table("E12f. SoftTRR-style watch-set defense: coverage is everything");
  table.SetHeader({"watched pages", "victim flips", "watch refreshes"});
  for (const auto& row : RunScenarios(
           "e12f", 2, [](size_t i, ScenarioTelemetry* t) { return WatchSetRow(i == 1, t); },
           threads)) {
    if (!row.empty()) {
      table.AddRow(row);
    }
  }
  table.Print();
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  const unsigned threads = ht::BenchMain(argc, argv);
  ht::RefNeighborsVsInstr();
  ht::InferenceAccuracy();
  ht::RemapRobustness(threads);
  ht::RowBufferPolicy(threads);
  ht::EccAblation(threads);
  ht::WatchSetAblation(threads);
  ht::RefreshModeAblation(threads);
  return 0;
}
