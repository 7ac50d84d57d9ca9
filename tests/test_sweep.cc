// The sweep engine's contracts: canonical spec serialization round-trips,
// cache keys ignore field order but track every covered knob, a resumed
// sweep completes exactly the missing cells and reproduces the
// uninterrupted report, shards union back to the unsharded report, and a
// corrupt cache entry is detected and recomputed rather than trusted.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "sim/sweep/sweep.h"

namespace ht {
namespace {

// A grid small enough to simulate in milliseconds: three thresholds under
// one attack, with a tiny cycle budget and footprint.
SweepGrid TinyGrid() {
  SweepGrid grid;
  grid.attacks = {AttackKind::kDoubleSided};
  grid.defenses = {DefenseKind::kSwRefresh};
  grid.act_thresholds = {64, 128, 256};
  grid.cycle_budgets = {2000};
  grid.pages_per_tenant = 32;
  return grid;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sweep_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SpecKey, CanonicalJsonRoundTrips) {
  ScenarioSpec spec;
  spec.system.dram = DramConfig::DensityGeneration(2);
  spec.system.dram.trr.enabled = true;
  spec.system.dram.trr.table_entries = 8;
  spec.defense = DefenseKind::kActRemap;
  spec.hw = HwMitigationKind::kGraphene;
  spec.attack = AttackKind::kManySided;
  spec.sides = 12;
  spec.act_threshold = 512;
  spec.randomize_reset = true;
  spec.run_cycles = 4321;
  spec.seed = 99;
  spec.benign_corunner = true;

  const JsonValue canonical = SpecCanonicalJson(spec);
  std::string error;
  const std::optional<ScenarioSpec> decoded = SpecFromCanonicalJson(canonical, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  // The round-trip must land on the same canonical form (and key).
  EXPECT_TRUE(SpecCanonicalJson(*decoded) == canonical);
  EXPECT_EQ(SweepKey(*decoded), SweepKey(spec));
}

TEST(SpecKey, KeyIgnoresMemberOrder) {
  const JsonValue canonical = SpecCanonicalJson(ScenarioSpec{});
  JsonValue reversed = canonical;
  std::reverse(reversed.members().begin(), reversed.members().end());
  ASSERT_FALSE(canonical.ToString() == reversed.ToString());
  EXPECT_EQ(SweepKeyFromJson(canonical), SweepKeyFromJson(reversed));
}

TEST(SpecKey, KeyTracksEveryCoveredKnob) {
  const std::string base = SweepKey(ScenarioSpec{});
  ScenarioSpec changed;
  changed.act_threshold = 257;
  EXPECT_NE(SweepKey(changed), base);
  changed = ScenarioSpec{};
  changed.seed = 1;
  EXPECT_NE(SweepKey(changed), base);
  changed = ScenarioSpec{};
  changed.system.dram.disturbance.blast_radius += 1;
  EXPECT_NE(SweepKey(changed), base);
  changed = ScenarioSpec{};
  changed.defense = DefenseKind::kSwRefresh;
  EXPECT_NE(SweepKey(changed), base);
}

TEST(SpecKey, RejectsUnknownNamesAndMissingMembers) {
  JsonValue canonical = SpecCanonicalJson(ScenarioSpec{});
  canonical.Set("defense", JsonValue::Str("no-such-defense"));
  EXPECT_FALSE(SpecFromCanonicalJson(canonical).has_value());

  JsonValue truncated = SpecCanonicalJson(ScenarioSpec{});
  truncated.members().pop_back();
  std::string error;
  EXPECT_FALSE(SpecFromCanonicalJson(truncated, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ExpandGrid, DeduplicatesAndSortsByKey) {
  SweepGrid grid = TinyGrid();
  grid.attacks = {AttackKind::kDoubleSided, AttackKind::kDoubleSided};
  const std::vector<SweepCellSpec> cells = ExpandGrid(grid);
  ASSERT_EQ(cells.size(), 3u);  // Duplicate attack axis entries collapse.
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end(),
                             [](const SweepCellSpec& a, const SweepCellSpec& b) {
                               return a.key < b.key;
                             }));
  for (const SweepCellSpec& cell : cells) {
    EXPECT_EQ(SweepKey(cell.spec), cell.key);
  }
}

TEST(RunSweep, ResumeCompletesOnlyMissingCells) {
  const std::string dir = FreshDir("resume");
  const SweepGrid grid = TinyGrid();

  SweepOptions uncached;
  uncached.threads = 1;
  const SweepOutcome full = RunCells(ExpandGrid(grid), uncached, MakeSweepReport);
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.total_cells, 3u);
  EXPECT_EQ(full.executed_cells, 3u);

  SweepOptions partial = uncached;
  partial.cache_dir = dir;
  partial.resume = true;
  partial.max_cells = 1;
  const SweepOutcome interrupted = RunCells(ExpandGrid(grid), partial, MakeSweepReport);
  ASSERT_TRUE(interrupted.ok) << interrupted.error;
  EXPECT_EQ(interrupted.executed_cells, 1u);
  EXPECT_EQ(interrupted.skipped_cells, 2u);

  SweepOptions resume = partial;
  resume.max_cells = 0;
  const SweepOutcome resumed = RunCells(ExpandGrid(grid), resume, MakeSweepReport);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.cached_cells, 1u);
  EXPECT_EQ(resumed.executed_cells, 2u);
  // The stitched-together report is byte-identical to the uninterrupted one.
  EXPECT_EQ(resumed.report.ToString(), full.report.ToString());
  std::filesystem::remove_all(dir);
}

TEST(RunSweep, BinaryCacheResumesByteIdentically) {
  const std::string dir = FreshDir("binary_resume");
  const SweepGrid grid = TinyGrid();

  SweepOptions uncached;
  uncached.threads = 1;
  const SweepOutcome full = RunCells(ExpandGrid(grid), uncached, MakeSweepReport);
  ASSERT_TRUE(full.ok) << full.error;

  // Interrupted binary-cache run: cells persist as .htb containers.
  SweepOptions partial = uncached;
  partial.cache_dir = dir;
  partial.resume = true;
  partial.binary_cache = true;
  partial.max_cells = 1;
  const SweepOutcome interrupted = RunCells(ExpandGrid(grid), partial, MakeSweepReport);
  ASSERT_TRUE(interrupted.ok) << interrupted.error;
  EXPECT_EQ(interrupted.executed_cells, 1u);
  EXPECT_EQ(interrupted.cache_misses, 3u);
  size_t htb_cells = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".htb") << entry.path();
    ++htb_cells;
  }
  EXPECT_EQ(htb_cells, 1u);

  // Resuming in binary mode reuses the binary cell and finishes the rest;
  // the stitched report is byte-identical to the uninterrupted JSON run.
  SweepOptions resume = partial;
  resume.max_cells = 0;
  const SweepOutcome resumed = RunCells(ExpandGrid(grid), resume, MakeSweepReport);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.cached_cells, 1u);
  EXPECT_EQ(resumed.executed_cells, 2u);
  EXPECT_EQ(resumed.report.ToString(), full.report.ToString());

  // Mixed-format resume: a JSON-mode run over the binary cache still
  // loads every cell (the reader sniffs content, not extensions).
  SweepOptions json_mode = resume;
  json_mode.binary_cache = false;
  const SweepOutcome warm = RunCells(ExpandGrid(grid), json_mode, MakeSweepReport);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cached_cells, 3u);
  EXPECT_EQ(warm.executed_cells, 0u);
  EXPECT_EQ(warm.report.ToString(), full.report.ToString());
  std::filesystem::remove_all(dir);
}

TEST(RunSweep, OutcomeCarriesWallClockBreakdown) {
  SweepOptions options;
  options.threads = 1;
  const SweepOutcome outcome = RunCells(ExpandGrid(TinyGrid()), options, MakeSweepReport);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  // The breakdown is host timing, not report content: phases are
  // non-negative and bounded by the total, and the report itself stays
  // free of wall-clock state.
  EXPECT_GT(outcome.wall_seconds, 0.0);
  EXPECT_GE(outcome.cache_seconds, 0.0);
  EXPECT_GE(outcome.execute_seconds, 0.0);
  EXPECT_GE(outcome.report_seconds, 0.0);
  EXPECT_LE(outcome.cache_seconds + outcome.execute_seconds + outcome.report_seconds,
            outcome.wall_seconds + 1e-6);
  EXPECT_EQ(outcome.report.ToString().find("wall"), std::string::npos);
}

TEST(RunSweep, ShardUnionEqualsUnsharded) {
  const SweepGrid grid = TinyGrid();
  SweepOptions options;
  options.threads = 1;
  const SweepOutcome full = RunCells(ExpandGrid(grid), options, MakeSweepReport);
  ASSERT_TRUE(full.ok) << full.error;

  options.shard_count = 2;
  options.shard_index = 1;
  const SweepOutcome shard1 = RunCells(ExpandGrid(grid), options, MakeSweepReport);
  options.shard_index = 2;
  const SweepOutcome shard2 = RunCells(ExpandGrid(grid), options, MakeSweepReport);
  ASSERT_TRUE(shard1.ok && shard2.ok);
  EXPECT_EQ(shard1.shard_cells + shard2.shard_cells, full.total_cells);

  std::string error;
  const JsonValue merged = MergeCellReports({shard1.report, shard2.report}, ValidateSweepReport,
                                           MakeSweepReport, &error);
  ASSERT_NE(merged.type(), JsonValue::Type::kNull) << error;
  EXPECT_EQ(merged.ToString(), full.report.ToString());
}

TEST(RunSweep, CorruptCacheEntryIsRecomputed) {
  const std::string dir = FreshDir("corrupt");
  const SweepGrid grid = TinyGrid();
  SweepOptions options;
  options.threads = 1;
  options.cache_dir = dir;
  options.resume = true;
  const SweepOutcome first = RunCells(ExpandGrid(grid), options, MakeSweepReport);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.executed_cells, 3u);

  // Tamper with one cell: flip a result value without updating anything
  // else (the spec still hashes to the key, but we also truncate a second
  // cell outright).
  const ResultCache cache(dir);
  const std::string& key0 = first.report.Find("cells")->at(0).Find("key")->as_string();
  const std::string& key1 = first.report.Find("cells")->at(1).Find("key")->as_string();
  {
    std::ofstream out(cache.PathFor(key0), std::ios::trunc);
    out << "{\"schema\": \"" << kSweepCellSchema << "\", not json";
  }
  {
    std::optional<JsonValue> cell = cache.Load(key1);
    ASSERT_TRUE(cell.has_value());
    cell->Find("spec")->Set("seed", JsonValue::Uint(777));  // Key no longer matches.
    ASSERT_TRUE(cache.Store(key1, *cell));
  }
  std::string why;
  EXPECT_FALSE(cache.Load(key0, &why).has_value());
  EXPECT_FALSE(cache.Load(key1, &why).has_value());

  const SweepOutcome second = RunCells(ExpandGrid(grid), options, MakeSweepReport);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.cached_cells, 1u);    // Only the untouched cell survived.
  EXPECT_EQ(second.executed_cells, 2u);  // Both corrupt cells recomputed.
  EXPECT_EQ(second.report.ToString(), first.report.ToString());
  std::filesystem::remove_all(dir);
}

TEST(SweepReport, ValidatorCatchesStructuralDamage) {
  const SweepGrid grid = TinyGrid();
  SweepOptions options;
  options.threads = 1;
  const SweepOutcome outcome = RunCells(ExpandGrid(grid), options, MakeSweepReport);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  std::string error;
  EXPECT_TRUE(ValidateSweepReport(outcome.report, &error)) << error;

  JsonValue bad_schema = outcome.report;
  bad_schema.Set("schema", JsonValue::Str("hammertime.sweep_report.v0"));
  EXPECT_FALSE(ValidateSweepReport(bad_schema, &error));

  JsonValue unsorted = outcome.report;
  JsonValue reversed_cells = JsonValue::Array();
  const JsonValue* array = outcome.report.Find("cells");
  for (size_t i = array->size(); i > 0; --i) {
    reversed_cells.Push(array->at(i - 1));
  }
  unsorted.Set("cells", std::move(reversed_cells));
  EXPECT_FALSE(ValidateSweepReport(unsorted, &error));
  EXPECT_NE(error.find("strictly increasing"), std::string::npos);
}

}  // namespace
}  // namespace ht
