#include <gtest/gtest.h>

#include "attack/hammer.h"
#include "attack/planner.h"
#include "defense/anvil_defense.h"
#include "defense/frequency_defense.h"
#include "defense/refresh_defense.h"
#include "sim/runner/runner.h"
#include "sim/scenario.h"
#include "sim/system.h"

namespace ht {
namespace {

// Harness: system + 2 tenants + a double-sided plan against tenant 2.
struct Rig {
  std::unique_ptr<System> system;
  DomainId attacker = 0;
  DomainId victim = 0;
  HammerPlan plan;
};

Rig MakeRig(DefenseKind kind, uint64_t threshold = 256) {
  SystemConfig config;
  config.cores = 2;
  ApplyDefensePreset(config, kind, threshold);
  Rig rig;
  rig.system = std::make_unique<System>(config);
  auto tenants = SetupTenants(*rig.system, 2, 512);
  rig.attacker = tenants[0];
  rig.victim = tenants[1];
  auto plan = PlanDoubleSidedCross(rig.system->kernel(), rig.attacker, rig.victim);
  EXPECT_TRUE(plan.has_value());
  if (plan.has_value()) {
    rig.plan = *plan;
  }
  rig.system->InstallDefense(MakeDefense(kind, config.dram));
  return rig;
}

void Hammer(Rig& rig, Cycle cycles) {
  HammerConfig hammer;
  hammer.aggressors = rig.plan.aggressor_vas;
  rig.system->AssignCore(0, rig.attacker, std::make_unique<HammerStream>(hammer));
  rig.system->RunFor(cycles);
}

TEST(SoftRefreshDefense, RefreshesVictimsOnInterrupt) {
  Rig rig = MakeRig(DefenseKind::kSwRefresh);
  Hammer(rig, 400000);
  const auto& stats = rig.system->defense()->stats();
  EXPECT_GT(stats.Get("defense.interrupts"), 0u);
  EXPECT_GT(stats.Get("defense.victim_refreshes"), 0u);
  EXPECT_EQ(Assess(*rig.system).cross_domain_flips, 0u);
}

TEST(SoftRefreshDefense, RefNeighborsVariantWorks) {
  Rig rig = MakeRig(DefenseKind::kSwRefreshRefn);
  Hammer(rig, 400000);
  EXPECT_GT(rig.system->defense()->stats().Get("defense.ref_neighbors"), 0u);
  EXPECT_EQ(Assess(*rig.system).cross_domain_flips, 0u);
  EXPECT_GT(rig.system->mc().device(rig.plan.channel).stats().Get("dram.ref_neighbors"), 0u);
}

TEST(SoftRefreshDefense, ImpreciseInterruptIsUseless) {
  // §4.2's "Problem": with the legacy (no-address) event, the defense
  // cannot act and flips happen anyway.
  SystemConfig config;
  config.cores = 2;
  ApplyDefensePreset(config, DefenseKind::kSwRefresh, 256);
  config.mc.act_counter.precise = false;  // Legacy event.
  Rig rig;
  rig.system = std::make_unique<System>(config);
  auto tenants = SetupTenants(*rig.system, 2, 512);
  rig.attacker = tenants[0];
  rig.victim = tenants[1];
  rig.plan = *PlanDoubleSidedCross(rig.system->kernel(), rig.attacker, rig.victim);
  rig.system->InstallDefense(MakeDefense(DefenseKind::kSwRefresh, config.dram));
  Hammer(rig, 600000);
  const auto& stats = rig.system->defense()->stats();
  EXPECT_GT(stats.Get("defense.unactionable_interrupts"), 0u);
  EXPECT_EQ(stats.Get("defense.victim_refreshes"), 0u);
  EXPECT_GT(Assess(*rig.system).cross_domain_flips, 0u);
}

TEST(ActRemapDefense, MigratesHotPages) {
  Rig rig = MakeRig(DefenseKind::kActRemap);
  Hammer(rig, 600000);
  EXPECT_GT(rig.system->kernel().page_moves(), 0u);
  EXPECT_GT(rig.system->defense()->stats().Get("defense.pages_migrated"), 0u);
}

TEST(ActRemapDefense, ReducesFlipsVersusNoDefense) {
  // Wear-leveling migration is rate-limiting, not absolute: with a naive
  // allocator the migrated hot page can land adjacent to victim data
  // again (documented in DESIGN.md). The requirement is a large
  // reduction relative to no defense.
  Rig undefended = MakeRig(DefenseKind::kNone);
  Hammer(undefended, 800000);
  const SecurityOutcome baseline = Assess(*undefended.system);
  ASSERT_GT(baseline.cross_domain_flips, 5u);

  Rig rig = MakeRig(DefenseKind::kActRemap);
  Hammer(rig, 800000);
  const SecurityOutcome outcome = Assess(*rig.system);
  EXPECT_LT(outcome.cross_domain_flips, baseline.cross_domain_flips / 2);
}

TEST(CacheLockDefense, LocksTriggeringLines) {
  Rig rig = MakeRig(DefenseKind::kCacheLock);
  Hammer(rig, 600000);
  const auto& stats = rig.system->defense()->stats();
  EXPECT_GT(stats.Get("defense.interrupts"), 0u);
  // Either locking succeeded or it fell back to migration.
  EXPECT_GT(stats.Get("defense.lines_locked") + stats.Get("defense.fallback_migrations"), 0u);
}

TEST(CacheLockDefense, ReleasesLocksAfterWindow) {
  SystemConfig config;
  config.cores = 2;
  config.dram.retention.refresh_window = 1u << 16;  // Short window.
  ApplyDefensePreset(config, DefenseKind::kCacheLock, 128);
  System system(config);
  auto tenants = SetupTenants(system, 2, 256);
  auto plan = PlanManySided(system.kernel(), tenants[0], 2);
  ASSERT_TRUE(plan.has_value());
  system.InstallDefense(MakeDefense(DefenseKind::kCacheLock, config.dram));
  HammerConfig hammer;
  hammer.aggressors = plan->aggressor_vas;
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.RunFor(400000);
  const auto& stats = system.defense()->stats();
  if (stats.Get("defense.lines_locked") > 0) {
    EXPECT_GT(stats.Get("defense.locks_released"), 0u);
  }
}

TEST(AnvilDefense, DetectsCpuHammeringViaMisses) {
  SystemConfig config;
  config.cores = 2;
  System system(config);
  auto tenants = SetupTenants(system, 2, 512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  ASSERT_TRUE(plan.has_value());
  AnvilConfig anvil;
  anvil.miss_threshold = 64;
  anvil.blast_radius = config.dram.disturbance.blast_radius;
  system.InstallDefense(std::make_unique<AnvilDefense>(anvil));
  HammerConfig hammer;
  hammer.aggressors = plan->aggressor_vas;
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.RunFor(600000);
  EXPECT_GT(system.defense()->stats().Get("defense.detections"), 0u);
  EXPECT_GT(system.defense()->stats().Get("defense.refresh_reads"), 0u);
}

TEST(AnvilDefense, BlindToDmaHammering) {
  // §1: DMA produces no PMU events -> ANVIL never detects, flips land.
  SystemConfig config;
  config.cores = 1;
  System system(config);
  auto tenants = SetupTenants(system, 2, 512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  ASSERT_TRUE(plan.has_value());
  AnvilConfig anvil;
  anvil.miss_threshold = 64;
  system.InstallDefense(std::make_unique<AnvilDefense>(anvil));
  DmaConfig dma;
  dma.pattern = plan->aggressor_addrs;
  dma.period = 8;
  system.AddDma(tenants[0], dma);
  system.RunFor(600000);
  EXPECT_EQ(system.defense()->stats().Get("defense.detections"), 0u);
  EXPECT_GT(Assess(system).cross_domain_flips, 0u);
}

TEST(Defenses, NoneScenarioInstallsNoDefense) {
  ScenarioSpec spec;
  spec.defense = DefenseKind::kNone;
  spec.run_cycles = 20000;
  bool finished = false;
  ScenarioHooks hooks;
  hooks.on_finish = [&finished](System& system) {
    finished = true;
    EXPECT_EQ(system.defense(), nullptr);
  };
  RunScenario(spec, nullptr, &hooks);
  EXPECT_TRUE(finished);
}

TEST(Defenses, FactoryNamesMatchKinds) {
  const DramConfig dram = DramConfig::SimDefault();
  EXPECT_EQ(MakeDefense(DefenseKind::kNone, dram), nullptr);
  EXPECT_EQ(MakeDefense(DefenseKind::kSwRefresh, dram)->name(), "sw-refresh");
  EXPECT_EQ(MakeDefense(DefenseKind::kSwRefreshRefn, dram)->name(), "sw-refresh+refn");
  EXPECT_EQ(MakeDefense(DefenseKind::kActRemap, dram)->name(), "act-remap");
  EXPECT_EQ(MakeDefense(DefenseKind::kCacheLock, dram)->name(), "cache-lock");
  EXPECT_EQ(MakeDefense(DefenseKind::kAnvil, dram)->name(), "anvil");
}

}  // namespace
}  // namespace ht
