// E3 — TRR bypass with many-sided hammering (§3 / TRRespass [15]).
//
// In-DRAM TRR tracks n aggressor rows. Sweeping the number of attack
// sides for several n shows the bypass boundary: flips appear once the
// aggressor set exceeds the tracker.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace ht {
namespace {

void Main(unsigned threads) {
  const std::vector<uint32_t> table_sizes = {2, 4, 8, 16};
  const std::vector<uint32_t> sides_sweep = {1, 2, 4, 8, 16, 32};

  Table table("E3. Flip events vs. attack sides for TRR tracker size n (3M-cycle hammer)");
  std::vector<std::string> header = {"sides"};
  for (uint32_t n : table_sizes) {
    header.push_back("TRR n=" + std::to_string(n));
  }
  header.push_back("no TRR");
  table.SetHeader(header);

  std::vector<ScenarioSpec> specs;
  for (uint32_t sides : sides_sweep) {
    for (size_t config_index = 0; config_index <= table_sizes.size(); ++config_index) {
      ScenarioSpec spec;
      spec.attack = AttackKind::kManySided;
      spec.sides = sides;
      spec.pages_per_tenant = 1024;
      spec.run_cycles = 3000000;
      if (config_index < table_sizes.size()) {
        spec.system.dram.trr.enabled = true;
        spec.system.dram.trr.table_entries = table_sizes[config_index];
        spec.system.dram.trr.refreshes_per_ref = 2;
      }
      specs.push_back(spec);
    }
  }
  const std::vector<ScenarioResult> results = RunScenarios(specs, threads);
  size_t next = 0;
  for (uint32_t sides : sides_sweep) {
    std::vector<std::string> row = {Table::Num(uint64_t{sides})};
    for (size_t config_index = 0; config_index <= table_sizes.size(); ++config_index) {
      row.push_back(Table::Num(results[next++].security.flip_events));
    }
    table.AddRow(row);
  }
  table.Print();
  std::puts(
      "\nReading: each TRR column stays at 0 while sides <= n and goes nonzero\n"
      "beyond it (the TRRespass bypass); the no-TRR column flips whenever the\n"
      "per-victim ACT rate clears the MAC within the run.");
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  ht::Main(ht::BenchMain(argc, argv));
  return 0;
}
