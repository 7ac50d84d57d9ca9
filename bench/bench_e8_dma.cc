// E8 — DMA-based Rowhammer vs. defense observation points (§1, §4.2).
//
// ANVIL-class defenses sample CPU performance counters, which never see
// DMA traffic; the paper's MC-level ACT interrupt does. Both defenses
// face the same double-sided pattern driven first by a CPU core, then by
// a DMA engine.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace ht {
namespace {

void Main(unsigned threads) {
  struct Case {
    std::string label;
    DefenseKind defense;
  };
  const std::vector<Case> cases = {
      {"none", DefenseKind::kNone},
      {"anvil (CPU PMU sampling)", DefenseKind::kAnvil},
      {"sw-refresh (MC ACT interrupt)", DefenseKind::kSwRefresh},
  };
  const std::vector<AttackKind> attacks = {AttackKind::kDoubleSided, AttackKind::kDma};
  std::vector<ScenarioSpec> specs;
  for (const Case& c : cases) {
    for (AttackKind attack : attacks) {
      ScenarioSpec spec;
      spec.defense = c.defense;
      spec.attack = attack;
      spec.run_cycles = 1200000;
      specs.push_back(spec);
    }
  }
  const std::vector<ScenarioResult> results = RunScenarios(specs, threads);

  Table table("E8. CPU-driven vs. DMA-driven double-sided hammer (1.2M cycles)");
  table.SetHeader({"defense", "attack path", "detections/interrupts", "cross-domain flips",
                   "protected"});
  for (size_t i = 0; i < results.size(); ++i) {
    const uint64_t flips = results[i].security.cross_domain_flips;
    table.AddRow({cases[i / attacks.size()].label,
                  attacks[i % attacks.size()] == AttackKind::kDma ? "DMA engine" : "CPU core",
                  Table::Num(results[i].defense_interrupts), Table::Num(flips),
                  Table::YesNo(flips == 0)});
  }
  table.Print();
  std::puts("\nReading: ANVIL protects against the CPU path but is blind to DMA\n"
            "(zero detections); the MC-level ACT interrupt observes the ACT stream\n"
            "itself, so the attack path is irrelevant — the paper's case for putting\n"
            "the primitive in the memory controller.");
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  ht::Main(ht::BenchMain(argc, argv));
  return 0;
}
