// E9 — Cache-line locking as a first-line frequency defense (§4.2).
//
// Sweeping the per-set locked-way budget shows the trade-off: more
// lockable ways stop more hammering in the cache (no DRAM ACTs at all)
// but squeeze benign co-runners; with zero budget the defense degenerates
// to pure migration.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace ht {
namespace {

// One budget's table row; empty when the attacker found no plan.
std::vector<std::string> LockedWaysRow(uint32_t ways, ScenarioTelemetry* telemetry) {
  const Cycle kRun = RunBudget(1200000);
  SystemConfig config;
  config.cores = 2;
  config.cache.max_locked_ways = ways;
  ApplyDefensePreset(config, DefenseKind::kCacheLock, 256);
  JobSystem system(config, telemetry);
  auto tenants = SetupTenants(system, 2, 512);
  system.InstallDefense(MakeDefense(DefenseKind::kCacheLock, config.dram));
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  std::vector<std::string> row;
  if (plan.has_value()) {
    HammerConfig hammer;
    hammer.aggressors = plan->aggressor_vas;
    system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
    system.AssignCore(1, tenants[1],
                      MakeWorkload("hotspot", tenants[1], AddressSpace::BaseFor(tenants[1]),
                                   512 * kPageBytes, ~0ull >> 1, 55));
    system.RunFor(kRun);
    const SecurityOutcome outcome = Assess(system);
    const auto& stats = system.defense()->stats();
    row = {Table::Num(uint64_t{ways}), Table::Num(stats.Get("defense.lines_locked")),
           Table::Num(stats.Get("defense.fallback_migrations")),
           Table::Num(outcome.cross_domain_flips),
           Table::Fixed(static_cast<double>(system.core(1).ops_completed()) * 1000.0 /
                            static_cast<double>(kRun),
                        1),
           Table::Num(system.llc().stats().Get("cache.evictions"))};
  }
  system.Report(kRun);
  return row;
}

void Main(unsigned threads) {
  const std::vector<uint32_t> budgets = {0, 1, 2, 4};
  const auto rows = RunScenarios(
      "e9", budgets.size(),
      [&](size_t i, ScenarioTelemetry* t) { return LockedWaysRow(budgets[i], t); }, threads);
  Table table("E9. Locked-way budget sweep (cache-lock defense, double-sided attack + benign "
              "co-runner, 1.2M cycles)");
  table.SetHeader({"max locked ways/set", "lines locked", "fallback migrations",
                   "cross-domain flips", "benign ops/kcycle", "LLC evictions"});
  for (const auto& row : rows) {
    if (!row.empty()) {
      table.AddRow(row);
    }
  }
  table.Print();
  std::puts("\nReading: a locked line survives guest clflush (written back for\n"
            "coherence but kept resident), so the attacker's loads become cache hits\n"
            "and stop generating ACTs. With a zero budget the defense degenerates to\n"
            "pure migration — the §4.2 fallback.");
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  ht::Main(ht::BenchMain(argc, argv));
  return 0;
}
