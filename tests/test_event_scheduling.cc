// Differential checks for the event-driven busy-phase scheduler: the
// event mode (exact NextWake during busy phases, memo-gated channel
// scans, interval-accounted core stalls) must be an optimization only —
// identical command streams, flips, and stats to the per-cycle legacy
// mode, with the scheduler's own telemetry the lone permitted difference.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/hammer.h"
#include "attack/planner.h"
#include "mc/controller.h"
#include "mc/mitigations.h"
#include "sim/runner/runner.h"
#include "sim/scenario.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace ht {
namespace {

// Stats whose whole purpose is to measure the scheduling mechanism; they
// legitimately differ between the event and legacy wake patterns (legacy
// mode's every-cycle scans dwarf the event mode's).
bool IsSchedulerTelemetry(const std::string& name) {
  return name == "mc.wake_batches" || name == "mc.cmds_per_wake";
}

void ExpectStatsIdentical(const StatSet& a, const StatSet& b) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters()) {
    if (IsSchedulerTelemetry(name)) {
      continue;
    }
    EXPECT_EQ(counter.value(), b.Get(name)) << "counter " << name;
  }
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, histogram] : a.histograms()) {
    if (IsSchedulerTelemetry(name)) {
      continue;
    }
    const Histogram* other = b.GetHistogram(name);
    ASSERT_NE(other, nullptr) << "histogram " << name;
    EXPECT_TRUE(histogram == *other) << "histogram " << name;
  }
}

enum class Hw { kNone, kBlockHammer, kGraphene };

struct VariantOutcome {
  StatSet stats;
  uint64_t flips = 0;
  uint64_t ops = 0;
  Cycle end = 0;
  uint64_t wake_batches = 0;
};

// One hammer core plus one benign streaming core (row conflicts, window
// stalls, and MC backpressure all get exercised), run for `cycles`.
VariantOutcome RunVariant(bool event_driven, Hw hw, bool per_bank_refresh, bool ref_neighbors,
                          Cycle cycles) {
  SystemConfig config;
  config.cores = 2;
  config.core.window = 2;  // Small window: force window-stall intervals.
  config.mc.event_driven = event_driven;
  config.core.event_driven = event_driven;
  config.dram.retention.per_bank_refresh = per_bank_refresh;
  config.mc.use_ref_neighbors = ref_neighbors;
  // Shrink the refresh window so mitigation epochs roll over in-test.
  config.dram.retention.refresh_window = 200000;
  config.dram.retention.ref_commands_per_window = 64;

  System system(config);
  switch (hw) {
    case Hw::kNone:
      break;
    case Hw::kBlockHammer:
      // Throttling exercises the scheduler's unstable (per-cycle) path.
      system.mc().InstallMitigation(std::make_unique<BlockHammerMitigation>(
          config.dram.org, config.dram.retention, config.dram.disturbance,
          BlockHammerConfig{}));
      break;
    case Hw::kGraphene:
      // Neighbour refreshes exercise the internal-op stage.
      system.mc().InstallMitigation(std::make_unique<GrapheneMitigation>(
          config.dram.org, config.dram.disturbance, GrapheneConfig{}));
      break;
  }

  auto tenants = SetupTenants(system, 2, /*pages_each=*/512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  HammerConfig hammer;
  if (plan.has_value()) {
    hammer.aggressors = plan->aggressor_vas;
  }
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.AssignCore(1, tenants[1],
                    MakeWorkload("stream", tenants[1], AddressSpace::BaseFor(tenants[1]),
                                 512 * kPageBytes, 50000, 8));
  system.RunFor(cycles);

  VariantOutcome outcome;
  outcome.stats = system.CollectStats();
  outcome.flips = system.TotalFlips();
  outcome.ops = system.TotalOpsCompleted();
  outcome.end = system.now();
  outcome.wake_batches = outcome.stats.Get("mc.wake_batches");
  return outcome;
}

// Exact counts of the stages both modes share (refresh manager, internal
// ops, mitigation hooks): the event-vs-legacy comparison cannot see a
// change there, so each case pins its values.
struct PinnedCounts {
  uint64_t refs = 0;
  uint64_t refs_sb = 0;
  uint64_t refresh_instr_acts = 0;
  uint64_t mitigation_refreshes = 0;
  uint64_t table_probes = 0;
  uint64_t flips = 0;
  uint64_t ops = 0;
};

void ExpectVariantsMatch(Hw hw, bool per_bank_refresh, bool ref_neighbors, Cycle cycles,
                         const PinnedCounts& pinned) {
  const VariantOutcome event = RunVariant(true, hw, per_bank_refresh, ref_neighbors, cycles);
  const VariantOutcome legacy = RunVariant(false, hw, per_bank_refresh, ref_neighbors, cycles);
  EXPECT_EQ(event.end, legacy.end);
  EXPECT_EQ(event.flips, legacy.flips);
  EXPECT_EQ(event.ops, legacy.ops);
  ExpectStatsIdentical(event.stats, legacy.stats);
  // The fast path must actually engage: strictly fewer scheduling wakes.
  EXPECT_LT(event.wake_batches, legacy.wake_batches);

  EXPECT_EQ(event.stats.Get("mc.refs_issued"), pinned.refs);
  EXPECT_EQ(event.stats.Get("mc.refs_sb_issued"), pinned.refs_sb);
  EXPECT_EQ(event.stats.Get("mc.refresh_instr_acts"), pinned.refresh_instr_acts);
  EXPECT_EQ(event.stats.Get("mc.mitigation_refreshes"), pinned.mitigation_refreshes);
  EXPECT_EQ(event.stats.Get("act.table_probes"), pinned.table_probes);
  EXPECT_EQ(event.flips, pinned.flips);
  EXPECT_EQ(event.ops, pinned.ops);
}

TEST(EventScheduling, MatchesLegacyOnHammerPlusStream) {
  ExpectVariantsMatch(Hw::kNone, false, false, 400000,
                      {.refs = 127, .table_probes = 113520, .ops = 39499});
}

TEST(EventScheduling, MatchesLegacyUnderBlockHammerThrottle) {
  ExpectVariantsMatch(Hw::kBlockHammer, false, false, 450000,
                      {.refs = 143, .table_probes = 152152, .ops = 44123});
}

TEST(EventScheduling, MatchesLegacyUnderGrapheneWithPerBankRefresh) {
  ExpectVariantsMatch(Hw::kGraphene, true, false, 450000,
                      {.refs_sb = 1144,
                       .refresh_instr_acts = 12,
                       .mitigation_refreshes = 4,
                       .table_probes = 185278,
                       .ops = 49073});
}

TEST(EventScheduling, MatchesLegacyUnderGrapheneWithRefNeighbors) {
  ExpectVariantsMatch(Hw::kGraphene, false, true, 450000,
                      {.refs = 143,
                       .mitigation_refreshes = 4,
                       .table_probes = 165035,
                       .ops = 44057});
}

struct ThrottledDmaRun {
  ScenarioResult result;  // Read right after RunFor, before CollectStats.
  StatSet stats;
  std::map<std::string, std::vector<double>> series;  // Sampler series.
};

// A DMA attack under BlockHammer: the queue stays deep behind throttled
// heads. `fast` selects skip-idle event-driven scheduling, otherwise the
// per-cycle legacy paths that never skip a cycle.
ThrottledDmaRun RunThrottledDma(bool fast, Cycle sample_every) {
  ScenarioSpec spec;
  spec.attack = AttackKind::kDma;
  spec.hw = HwMitigationKind::kBlockHammer;
  spec.run_cycles = 300000;
  spec.pages_per_tenant = 128;
  spec.system.skip_idle = fast;
  spec.system.mc.event_driven = fast;
  spec.system.core.event_driven = fast;
  spec.system.telemetry.sample_every = sample_every;
  ThrottledDmaRun run;
  ScenarioHooks hooks;
  hooks.on_finish = [&](System& system) {
    run.stats = system.CollectStats();
    run.series = system.sampler().AlignedSeries();
  };
  run.result = RunScenario(spec, nullptr, &hooks);
  return run;
}

// The scheduling memo sleeps through every cycle on which a scan could
// not issue, after failed scans and issues alike, so nearly every
// scheduling scan issues a DRAM command.
TEST(EventScheduling, ThrottledDmaScansAboutOncePerCommand) {
  const ThrottledDmaRun run = RunThrottledDma(true, 0);
  EXPECT_GT(run.stats.Get("mc.throttle_stalls"), 0u);
  uint64_t commands = 0;
  for (const char* name : {"dram.acts", "dram.pres", "dram.preas", "dram.reads", "dram.writes",
                           "dram.refs", "dram.refs_sb", "dram.ref_neighbors"}) {
    commands += run.stats.Get(name);
  }
  ASSERT_GT(commands, 10000u);
  EXPECT_LE(run.stats.Get("mc.wake_batches"), commands * 105 / 100)
      << commands << " DRAM commands";
}

// Mid-run readers see exact throttle stalls too: the sampler's series
// (stats every 4096 cycles, throttle stalls included) and the result read
// at the end of the run match between a run whose channels sleep behind
// throttled heads and one that scans every cycle.
TEST(EventScheduling, SampledSeriesMatchPerCycleRunUnderBlockHammerThrottle) {
  const ThrottledDmaRun fast = RunThrottledDma(true, 4096);
  const ThrottledDmaRun slow = RunThrottledDma(false, 4096);
  ASSERT_GT(fast.stats.Get("mc.throttle_stalls"), 0u);
  EXPECT_EQ(fast.result.throttle_stalls, slow.result.throttle_stalls);
  ExpectStatsIdentical(fast.stats, slow.stats);
  ASSERT_EQ(fast.series.size(), slow.series.size());
  for (const auto& [name, values] : fast.series) {
    if (name.starts_with("mc.wake_batches") || name.starts_with("mc.cmds_per_wake")) {
      continue;
    }
    const auto other = slow.series.find(name);
    ASSERT_NE(other, slow.series.end()) << name;
    EXPECT_EQ(values, other->second) << "series " << name;
  }
  EXPECT_EQ(fast.series.at("mc.throttle_stalls").size(), 300000u / 4096);
}

TEST(EventScheduling, StallCountersSurviveRepeatedCollection) {
  SystemConfig config;
  config.cores = 1;
  config.core.window = 2;
  System system(config);
  auto tenants = SetupTenants(system, 1, 512);
  system.AssignCore(0, tenants[0],
                    MakeWorkload("stream", tenants[0], AddressSpace::BaseFor(tenants[0]),
                                 512 * kPageBytes, 20000, 8));
  system.RunFor(150000);
  // SyncStallStats is idempotent: collecting twice (possibly mid-stall)
  // must not double-count the open interval.
  const uint64_t first = system.CollectStats().Get("core.window_stalls");
  const uint64_t second = system.CollectStats().Get("core.window_stalls");
  EXPECT_GT(first, 0u);  // The small window actually stalled.
  EXPECT_EQ(first, second);
}

// The tentpole contract: even while queues hold work, NextWake names the
// exact next-issueable cycle — every strictly earlier tick leaves the
// device untouched, and progress still happens (the queue drains).
TEST(EventScheduling, NextWakeIsExactDuringBusyPhases) {
  const DramConfig dram = DramConfig::SimDefault();
  McConfig mc_config;
  mc_config.event_driven = true;
  MemoryController mc(dram, mc_config);

  // Same bank, distinct rows: every access conflicts, so the channel
  // spends most cycles timing-blocked between ACT/PRE/RD commands.
  const AddressMapper& mapper = mc.mapper();
  std::vector<PhysAddr> addrs;
  uint32_t last_row = ~0u;
  for (PhysAddr addr = 0; addrs.size() < 16 && addr < mapper.total_lines() * kLineBytes;
       addr += kLineBytes) {
    const DdrCoord coord = mapper.Map(addr);
    if (coord.channel == 0 && coord.rank == 0 && coord.bank == 0 && coord.row != last_row) {
      addrs.push_back(addr);
      last_row = coord.row;
    }
  }
  ASSERT_EQ(addrs.size(), 16u);

  Cycle now = 0;
  size_t next_addr = 0;
  uint64_t busy_skips = 0;
  auto device_snapshot = [&mc]() { return mc.device(0).stats().ToString(); };
  while (now < 200000 && (next_addr < addrs.size() || !mc.Idle())) {
    if (next_addr < addrs.size()) {
      MemRequest request;
      request.id = next_addr;
      request.op = MemOp::kRead;
      request.addr = addrs[next_addr];
      if (mc.Enqueue(request, now)) {
        ++next_addr;
      }
    }
    mc.Tick(now);
    const Cycle wake = mc.NextWake(now);
    ASSERT_GE(wake, now);
    if (wake > now + 1) {
      if (mc.QueuedRequests() > 0) {
        ++busy_skips;  // NextWake skipped ahead while work was queued.
      }
      const std::string before = device_snapshot();
      for (Cycle t = now + 1; t < wake; ++t) {
        mc.Tick(t);
        ASSERT_EQ(device_snapshot(), before)
            << "command issued at " << t << " before NextWake=" << wake;
      }
      now = wake;
    } else {
      ++now;
    }
  }
  EXPECT_TRUE(mc.Idle());
  EXPECT_GT(busy_skips, 0u);
}

}  // namespace
}  // namespace ht
