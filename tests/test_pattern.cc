// The pattern-synthesis contracts: the builder is a pure function of its
// seed, Materialize() and the naive reference expander agree (and the
// stream emits exactly that schedule), the campaign report is
// byte-identical across serial / parallel / resumed / sharded runs, and —
// the E3 regression — a builder non-uniform pattern strictly out-flips
// the best uniform double-sided attack under a sampling TRR tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "attack/pattern.h"
#include "check/generator.h"
#include "check/pattern_ref.h"
#include "common/telemetry/report.h"
#include "sim/runner/runner.h"
#include "sim/sweep/patterns.h"

namespace ht {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pattern_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A hand-built two-set pattern: a fast every-frame pair and a slow
// half-frequency pair offset in phase, with two filler rows.
HammeringPattern HandBuiltPattern() {
  HammeringPattern pattern;
  pattern.slots_per_frame = 16;
  pattern.frames = 4;
  pattern.num_aggressors = 4;
  pattern.num_fillers = 2;
  AggressorSet fast;
  fast.start_frame = 0;
  fast.period_frames = 1;
  fast.phase_slot = 0;
  fast.amplitude = 2;
  fast.aggressors = {0, 1};
  AggressorSet slow;
  slow.start_frame = 1;
  slow.period_frames = 2;
  slow.phase_slot = 8;
  slow.amplitude = 1;
  slow.aggressors = {2, 3};
  pattern.sets = {fast, slow};
  return pattern;
}

TEST(PatternBuilder, SameSeedSamePatternByteForByte) {
  const PatternBuilder builder;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    const HammeringPattern a = builder.Build(seed);
    const HammeringPattern b = builder.Build(seed);
    ASSERT_TRUE(a.Validate());
    EXPECT_EQ(a.slots_per_frame, b.slots_per_frame);
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.num_aggressors, b.num_aggressors);
    EXPECT_EQ(a.num_fillers, b.num_fillers);
    EXPECT_EQ(a.seed, seed);
    ASSERT_EQ(a.sets.size(), b.sets.size());
    EXPECT_EQ(a.Materialize(), b.Materialize());
  }
}

TEST(PatternBuilder, ScenarioPatternsValidateAndAreNonUniform) {
  const DramConfig dram = DramConfig::SimDefault();
  bool any_multi_frequency = false;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const HammeringPattern pattern = BuildScenarioPattern(dram, seed);
    std::string error;
    ASSERT_TRUE(pattern.Validate(&error)) << "seed " << seed << ": " << error;
    EXPECT_GE(pattern.num_aggressors, 2u);
    // Non-uniform = at least two sets recur at different frequencies.
    for (const AggressorSet& a : pattern.sets) {
      if (a.period_frames != pattern.sets.front().period_frames) {
        any_multi_frequency = true;
      }
    }
  }
  EXPECT_TRUE(any_multi_frequency);
}

TEST(PatternOracle, ReferenceExpanderAgreesWithMaterialize) {
  const HammeringPattern pattern = HandBuiltPattern();
  ASSERT_TRUE(pattern.Validate());
  const std::vector<int32_t> schedule = pattern.Materialize();
  std::vector<PatternRefAccess> reference;
  std::string error;
  ASSERT_TRUE(ExpandPatternReference(pattern, &reference, &error)) << error;
  ASSERT_EQ(reference.size(), pattern.total_slots());
  uint32_t fillers_seen = 0;
  for (uint32_t slot = 0; slot < pattern.total_slots(); ++slot) {
    ASSERT_EQ(reference[slot].slot, slot);
    if (schedule[slot] == kFillerSlot) {
      EXPECT_TRUE(reference[slot].filler);
      // Filler ids round-robin in slot order.
      EXPECT_EQ(reference[slot].id,
                pattern.num_aggressors + (fillers_seen % pattern.num_fillers));
      ++fillers_seen;
    } else {
      EXPECT_FALSE(reference[slot].filler);
      EXPECT_EQ(reference[slot].id, static_cast<uint32_t>(schedule[slot]));
    }
  }
  EXPECT_GT(fillers_seen, 0u);
}

TEST(PatternOracle, StreamEmitsTheReferenceSchedule) {
  const HammeringPattern pattern = HandBuiltPattern();
  std::vector<PatternRefAccess> reference;
  ASSERT_TRUE(ExpandPatternReference(pattern, &reference));

  PatternStreamConfig config;
  config.pattern = pattern;
  for (uint32_t id = 0; id < pattern.total_ids(); ++id) {
    config.vas.push_back(0x40000 + static_cast<VirtAddr>(id) * kLineBytes);
  }
  config.iterations = 2;
  PatternHammerStream stream(config);
  for (uint64_t period = 0; period < 2; ++period) {
    for (const PatternRefAccess& access : reference) {
      const CoreOp load = stream.Next();
      ASSERT_EQ(load.kind, CoreOpKind::kLoad);
      EXPECT_EQ(load.va, config.vas[access.id])
          << "period " << period << " slot " << access.slot;
      const CoreOp flush = stream.Next();
      ASSERT_EQ(flush.kind, CoreOpKind::kFlush);
      EXPECT_EQ(flush.va, config.vas[access.id]);
    }
  }
  EXPECT_EQ(stream.Next().kind, CoreOpKind::kHalt);
  EXPECT_EQ(stream.accesses(), 2u * reference.size());
}

TEST(PatternOracle, FillerFreePatternSkipsUnclaimedSlots) {
  HammeringPattern pattern = HandBuiltPattern();
  pattern.num_fillers = 0;
  ASSERT_TRUE(pattern.Validate());
  std::vector<PatternRefAccess> reference;
  ASSERT_TRUE(ExpandPatternReference(pattern, &reference));
  // Without fillers the reference holds only claimed slots...
  for (const PatternRefAccess& access : reference) {
    EXPECT_FALSE(access.filler);
    EXPECT_LT(access.id, pattern.num_aggressors);
  }
  EXPECT_LT(reference.size(), pattern.total_slots());
  // ...and the stream's resolved period has the same length.
  PatternStreamConfig config;
  config.pattern = pattern;
  for (uint32_t id = 0; id < pattern.total_ids(); ++id) {
    config.vas.push_back(0x40000 + static_cast<VirtAddr>(id) * kLineBytes);
  }
  EXPECT_EQ(PatternHammerStream(config).period_vas().size(), reference.size());
}

TEST(PatternOracle, ValidateRejectsBrokenGeometry) {
  std::string error;
  HammeringPattern bad = HandBuiltPattern();
  bad.sets[1].period_frames = 3;  // Does not divide frames = 4.
  EXPECT_FALSE(bad.Validate(&error));

  bad = HandBuiltPattern();
  bad.sets[1].phase_slot = 0;  // Frame 1: collides with the fast set.
  EXPECT_FALSE(bad.Validate(&error));
  EXPECT_NE(error.find("slot"), std::string::npos);

  bad = HandBuiltPattern();
  bad.sets[0].aggressors = {0, 9};  // Id out of range.
  EXPECT_FALSE(bad.Validate(&error));
}

TEST(PatternFuzz, RandomizedSeedsAllClean) {
  Rng master(0xF00D);
  for (int i = 0; i < 40; ++i) {
    FuzzCase fuzz_case;
    fuzz_case.kind = FuzzCase::Kind::kPattern;
    fuzz_case.seed = master.Next();
    fuzz_case.steps = 1000 + master.NextBelow(2000);
    const PatternFuzzOutcome outcome = RunPatternFuzz(fuzz_case);
    EXPECT_FALSE(outcome.failed()) << outcome.report;
    EXPECT_GT(outcome.compared, 0u);
  }
}

TEST(PatternFuzz, InjectedFaultFiresAndShrinks) {
  FuzzCase fuzz_case;
  fuzz_case.kind = FuzzCase::Kind::kPattern;
  fuzz_case.seed = 9;
  fuzz_case.steps = 4000;
  fuzz_case.inject_after = 40;
  const PatternFuzzOutcome outcome = RunPatternFuzz(fuzz_case);
  ASSERT_TRUE(outcome.failed());
  EXPECT_GT(outcome.stream_mismatches, 0u);
  EXPECT_NE(outcome.report.find(fuzz_case.ToSeedLine()), std::string::npos);

  const FuzzCase shrunk = ShrinkPatternFuzz(fuzz_case);
  EXPECT_LE(shrunk.steps, fuzz_case.steps);
  EXPECT_TRUE(RunPatternFuzz(shrunk).failed());
  // The seed line round-trips, so the repro file replays this exact case.
  const std::optional<FuzzCase> parsed = ParseSeedLine(shrunk.ToSeedLine());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, shrunk.seed);
  EXPECT_EQ(parsed->steps, shrunk.steps);
  EXPECT_EQ(parsed->inject_after, shrunk.inject_after);
}

// --- Campaign determinism ----------------------------------------------------

PatternCampaignGrid TinyCampaign() {
  PatternCampaignGrid grid;
  grid.pattern_seeds = {1, 2};
  grid.vendors = {*TrrVendorByName("none"), *TrrVendorByName("sampler-4")};
  grid.run_cycles = 4000;
  grid.pages_per_tenant = 32;
  return grid;
}

TEST(PatternCampaign, SerialParallelResumeAndShardsByteIdentical) {
  const PatternCampaignGrid grid = TinyCampaign();
  SweepOptions serial;
  serial.threads = 1;
  const SweepOutcome full = RunCells(ExpandPatternGrid(grid), serial, MakePatternReport);
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.total_cells, 4u);
  std::string error;
  EXPECT_TRUE(ValidatePatternReport(full.report, &error)) << error;
  const std::string golden = full.report.ToString();

  SweepOptions parallel;
  parallel.threads = 4;
  const SweepOutcome threaded = RunCells(ExpandPatternGrid(grid), parallel, MakePatternReport);
  ASSERT_TRUE(threaded.ok) << threaded.error;
  EXPECT_EQ(threaded.report.ToString(), golden);

  const std::string dir = FreshDir("resume");
  SweepOptions interrupted = serial;
  interrupted.cache_dir = dir;
  interrupted.resume = true;
  interrupted.max_cells = 1;
  const SweepOutcome partial = RunCells(ExpandPatternGrid(grid), interrupted, MakePatternReport);
  ASSERT_TRUE(partial.ok) << partial.error;
  EXPECT_EQ(partial.executed_cells, 1u);
  SweepOptions resume = interrupted;
  resume.max_cells = 0;
  const SweepOutcome resumed = RunCells(ExpandPatternGrid(grid), resume, MakePatternReport);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.cached_cells, 1u);
  EXPECT_EQ(resumed.report.ToString(), golden);
  std::filesystem::remove_all(dir);

  SweepOptions shard = serial;
  shard.shard_count = 2;
  shard.shard_index = 1;
  const SweepOutcome shard1 = RunCells(ExpandPatternGrid(grid), shard, MakePatternReport);
  shard.shard_index = 2;
  const SweepOutcome shard2 = RunCells(ExpandPatternGrid(grid), shard, MakePatternReport);
  ASSERT_TRUE(shard1.ok && shard2.ok);
  EXPECT_EQ(shard1.shard_cells + shard2.shard_cells, full.total_cells);
  const JsonValue merged = MergeCellReports({shard1.report, shard2.report},
                                           ValidatePatternReport, MakePatternReport, &error);
  ASSERT_NE(merged.type(), JsonValue::Type::kNull) << error;
  EXPECT_EQ(merged.ToString(), golden);
}

TEST(PatternCampaign, ReportCarriesSummariesAndRanking) {
  const SweepOutcome outcome =
      RunCells(ExpandPatternGrid(TinyCampaign()), SweepOptions{}, MakePatternReport);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  const JsonValue* patterns = outcome.report.Find("patterns");
  ASSERT_NE(patterns, nullptr);
  EXPECT_EQ(patterns->size(), 2u);  // One summary per distinct seed.
  const JsonValue* ranking = outcome.report.Find("ranking");
  ASSERT_NE(ranking, nullptr);
  ASSERT_EQ(ranking->size(), 2u);  // One group per vendor, name ascending.
  EXPECT_EQ(ranking->at(0).Find("vendor")->as_string(), "none");
  EXPECT_EQ(ranking->at(1).Find("vendor")->as_string(), "sampler-4");
  for (size_t g = 0; g < ranking->size(); ++g) {
    const JsonValue* entries = ranking->at(g).Find("entries");
    ASSERT_EQ(entries->size(), 2u);
    EXPECT_GE(entries->at(0).Find("flips")->as_uint(),
              entries->at(1).Find("flips")->as_uint());
  }
}

TEST(PatternReport, ValidatorCatchesStructuralDamage) {
  const SweepOutcome outcome =
      RunCells(ExpandPatternGrid(TinyCampaign()), SweepOptions{}, MakePatternReport);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  std::string error;
  ASSERT_TRUE(ValidatePatternReport(outcome.report, &error)) << error;

  JsonValue bad_schema = outcome.report;
  bad_schema.Set("schema", JsonValue::Str("hammertime.sweep_report.v1"));
  EXPECT_FALSE(ValidatePatternReport(bad_schema, &error));

  JsonValue no_ranking = outcome.report;
  no_ranking.Set("ranking", JsonValue::Str("nope"));
  EXPECT_FALSE(ValidatePatternReport(no_ranking, &error));

  // Ranking entries must be sorted by flips, descending.
  JsonValue unsorted = outcome.report;
  JsonValue* entries = unsorted.Find("ranking")->at(0).Find("entries");
  ASSERT_EQ(entries->size(), 2u);
  entries->at(0).Set("flips", JsonValue::Uint(0));
  entries->at(1).Set("flips", JsonValue::Uint(7));
  EXPECT_FALSE(ValidatePatternReport(unsorted, &error));
}

// --- E3: non-uniform vs sampling TRR ----------------------------------------

ScenarioSpec SamplerTrrSpec() {
  ScenarioSpec spec;
  ApplyTrrVendor(spec.system.dram, *TrrVendorByName("sampler-4"));
  spec.run_cycles = 8000000;
  spec.pages_per_tenant = 512;
  return spec;
}

TEST(PatternE3, NonUniformOutFlipsUniformUnderSamplerTrr) {
  if (std::getenv("HT_BENCH_SMOKE") != nullptr) {
    GTEST_SKIP() << "needs full-length runs for stable flip counts";
  }
  // Best uniform double-sided attempt: the stock plan across a few
  // scenario seeds (placement perturbations).
  uint64_t best_uniform = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    ScenarioSpec spec = SamplerTrrSpec();
    spec.attack = AttackKind::kDoubleSided;
    spec.seed = seed;
    const ScenarioResult result = RunScenario(spec);
    ASSERT_TRUE(result.attack_planned);
    best_uniform = std::max(best_uniform, result.security.flip_events);
  }

  // Best builder pattern over a small seed budget, run twice: the flips
  // must beat every uniform attempt and replay identically.
  uint64_t best_pattern = 0;
  for (uint64_t pattern_seed = 1; pattern_seed <= 6; ++pattern_seed) {
    ScenarioSpec spec = SamplerTrrSpec();
    spec.attack = AttackKind::kPattern;
    spec.pattern_seed = pattern_seed;
    const ScenarioResult first = RunScenario(spec);
    ASSERT_TRUE(first.attack_planned) << "pattern seed " << pattern_seed;
    const ScenarioResult replay = RunScenario(spec);
    EXPECT_EQ(first.security.flip_events, replay.security.flip_events)
        << "pattern seed " << pattern_seed;
    best_pattern = std::max(best_pattern, first.security.flip_events);
  }
  EXPECT_GT(best_pattern, best_uniform);
}

}  // namespace
}  // namespace ht
