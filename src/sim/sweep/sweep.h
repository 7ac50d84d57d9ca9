// The sweep engine: expands a declarative parameter grid into a
// deduplicated, key-sorted list of scenario cells, executes them on the
// shared worker pool, and assembles a deterministic
// `hammertime.sweep_report.v1` document.
//
// Determinism contract: the report contains no wall-clock or host state,
// cells are ordered by their stable keys, and each cell's result is the
// bit-identical RunScenario outcome — so a resumed sweep, a re-run sweep,
// and the merge of any shard partition all serialize to the same bytes
// as one uninterrupted run.
#ifndef HAMMERTIME_SRC_SIM_SWEEP_SWEEP_H_
#define HAMMERTIME_SRC_SIM_SWEEP_SWEEP_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry/json.h"
#include "common/telemetry/report.h"  // kSweepReportSchema, ValidateSweepReport.
#include "sim/runner/runner.h"
#include "sim/sweep/cache.h"
#include "sim/sweep/speckey.h"

namespace ht {

// One axis per sweep-controllable knob; the grid is the cross product.
// Sentinels keep the axes composable with profile defaults: trr_entries 0
// = TRR off, blast_radii 0 = the profile's own radius, generations -1 =
// the scaled simulation default profile.
struct SweepGrid {
  std::vector<DefenseKind> defenses = {DefenseKind::kNone};
  std::vector<HwMitigationKind> hw = {HwMitigationKind::kNone};
  std::vector<AttackKind> attacks = {AttackKind::kDoubleSided};
  std::vector<uint64_t> act_thresholds = {256};
  std::vector<uint32_t> trr_entries = {0};
  std::vector<uint32_t> blast_radii = {0};
  std::vector<int> generations = {-1};
  std::vector<Cycle> cycle_budgets = {800000};
  std::vector<uint64_t> seeds = {0};
  // Scalar shape knobs applied to every cell.
  uint32_t sides = 16;
  uint32_t tenants = 2;
  uint64_t pages_per_tenant = 512;
  bool benign_corunner = false;
};

// A grid point ready to run: the canonical key and the runnable spec.
struct SweepCellSpec {
  std::string key;
  ScenarioSpec spec;
};

// Keys each spec, keeps the first spec of each key, and sorts by key:
// the execution and sharding order every campaign expansion returns.
std::vector<SweepCellSpec> KeyedCells(const std::vector<ScenarioSpec>& specs);

// Cross product of the grid axes, deduplicated by canonical key (two
// points that canonicalize identically — e.g. act-threshold variations
// under a defense that ignores them do NOT collapse, but genuinely
// identical specs do) and sorted by key.
std::vector<SweepCellSpec> ExpandGrid(const SweepGrid& grid);

struct SweepOptions {
  unsigned threads = 0;       // 0 = HT_THREADS / hardware concurrency.
  std::string cache_dir;      // Empty = no result cache.
  bool resume = false;        // Reuse valid cached cells instead of re-running.
  uint32_t shard_index = 1;   // 1-based: cell i runs iff i % count == index-1.
  uint32_t shard_count = 1;
  uint64_t max_cells = 0;     // Stop after this many executed cells (0 = all);
                              // the remainder is left for a resumed run.
  double progress_every = 0;  // > 0: heartbeat lines on stderr every N
                              // seconds while cells execute (one line is
                              // printed immediately so even short sweeps
                              // are observable).
};

struct SweepOutcome {
  bool ok = false;            // False on cache I/O failure or bad options.
  std::string error;
  uint64_t total_cells = 0;    // Grid size after dedup.
  uint64_t shard_cells = 0;    // Cells belonging to this shard.
  uint64_t cached_cells = 0;   // Satisfied from the result cache.
  uint64_t cache_misses = 0;   // Resume lookups that found no usable entry.
  uint64_t executed_cells = 0; // Actually simulated this run.
  uint64_t skipped_cells = 0;  // Deferred by max_cells.
  // Wall-clock breakdown of this shard's run (not part of the report,
  // which stays host-state-free): total, cache probe/load phase,
  // simulation fan-out, and report assembly + cell stores.
  double wall_seconds = 0.0;
  double cache_seconds = 0.0;
  double execute_seconds = 0.0;
  double report_seconds = 0.0;
  JsonValue report;            // hammertime.sweep_report.v1 (completed cells only).
};

// Assembles a campaign report from completed cells; total grid size
// first, the completed (key/spec/result) cell objects second. The sweep
// uses MakeSweepReport; the pattern campaign derives its extra sections
// (pattern summaries, per-vendor ranking) from the cells themselves, so
// the same builder serves fresh runs and shard merges.
using ReportBuilder = JsonValue (*)(uint64_t grid_cells, std::vector<JsonValue> cells);

// The generic cell executor under CampaignMain: takes an
// already-expanded key-sorted cell list, runs this shard's missing
// cells (deterministic spec order on the worker pool, resumable via the
// cell cache), persists each completed cell, and assembles the report
// with `make_report`. `progress_label` prefixes heartbeat lines.
SweepOutcome RunCells(const std::vector<SweepCellSpec>& cells, const SweepOptions& options,
                      ReportBuilder make_report, const char* progress_label = "hammersweep");

// The part every campaign report shares: `schema`, `grid_cells`, and the
// completed cells sorted by key. Campaign builders append their derived
// sections to it.
JsonValue MakeCellReport(const char* schema, uint64_t grid_cells, std::vector<JsonValue> cells);

// Builds a sweep report document from completed cells (sorted by key).
JsonValue MakeSweepReport(uint64_t grid_cells, std::vector<JsonValue> cells);

// The campaigns' named presets (structs with a `name` member): lookup by
// name, and the ", "-joined names in registry order.
template <typename Entry>
std::optional<Entry> EntryByName(const std::vector<Entry>& entries, std::string_view name) {
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [name](const Entry& entry) { return entry.name == name; });
  return it == entries.end() ? std::nullopt : std::optional<Entry>(*it);
}
template <typename Entry>
std::string EntryNames(const std::vector<Entry>& entries) {
  std::string out;
  for (const Entry& entry : entries) {
    out += (out.empty() ? "" : ", ") + entry.name;
  }
  return out;
}

// Lenient readers for report cell members: a missing or mistyped member
// reads as 0 / `fallback` / "".
uint64_t FieldUint(const JsonValue& object, const char* name);
double FieldDouble(const JsonValue& object, const char* name, double fallback = 0.0);
std::string FieldStr(const JsonValue& object, const char* name);
bool FieldBool(const JsonValue& object, const char* name);

// Generic shard-report union by cell key: all inputs must pass
// `validate`, agree on grid_cells, and agree on any key they share; the
// merged report is rebuilt with `make_report`, so it is byte-identical to
// the unsharded report over the same cells. Returns a null JsonValue with
// `error` set on any mismatch.
JsonValue MergeCellReports(const std::vector<JsonValue>& reports,
                           bool (*validate)(const JsonValue&, std::string*),
                           ReportBuilder make_report, std::string* error = nullptr);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_SWEEP_SWEEP_H_
