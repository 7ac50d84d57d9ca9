// hammerbench: the repository's end-to-end benchmark. It drives the
// public runner library (RunScenario + ScenarioHooks) over three
// workloads, checks every cell's simulated output, and measures host
// time end to end and, in a separate traced pass, layer by layer. All
// instrumentation lives here, outside src/: spans are taken around calls
// into each layer's public functions (hooks, observers, forwarders).
#ifndef HAMMERBENCH_BENCH_H_
#define HAMMERBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "common/stats.h"
#include "common/telemetry/json.h"
#include "sim/runner/runner.h"

namespace hb {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);
double Median(std::vector<double> values);

// --- Workloads ---------------------------------------------------------------

enum class Campaign { kTaxonomy, kCloud, kPattern };

struct Cell {
  std::string key;  // Sweep key for campaign cells, "row/attack" for taxonomy.
  ht::ScenarioSpec spec;
  // Taxonomy only: indices into TaxonomyRows() / TaxonomyAttacks().
  int row = -1;
  int attack = -1;
  std::string family;  // Cloud only: defense family recovered from the spec.
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  Campaign campaign = Campaign::kTaxonomy;
  std::vector<Cell> cells;
};

struct TaxonomyRow {
  const char* label;
  ht::DefenseKind defense;
  ht::HwMitigationKind hw;
  bool subarray_isolated;
  bool guard_rows;
  bool trr;
};

const std::vector<TaxonomyRow>& TaxonomyRows();
const std::vector<ht::AttackKind>& TaxonomyAttacks();
// The E1 cell exactly as bench_e1_taxonomy builds it, with `seed` as
// ScenarioSpec::seed.
ht::ScenarioSpec TaxonomySpec(const TaxonomyRow& row, ht::AttackKind attack, uint64_t seed);

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// --- Execution ---------------------------------------------------------------

enum class Mode {
  kFast,       // Stock fast path; the timed mode.
  kReference,  // skip_idle, MC and core event-driven scheduling off; oracle attached.
  kTraced,     // Fast path with per-layer spans and the runner's profiler phases.
};

// Per-cell span totals from a traced run, in host nanoseconds.
struct LayerSpans {
  int64_t dram_issue_ns = 0;       // OnCommand -> OnCommandApplied.
  uint64_t dram_issued = 0;        // Accepted commands observed.
  int64_t defense_hook_ns = 0;     // Timed forwarder around the defense call.
  int64_t hook_nested_dram_ns = 0; // dram.issue time inside a defense hook.
  uint64_t defense_calls = 0;
};

// One recorded span for the Chrome trace (host microseconds since the
// process epoch). Children share their cell's id.
struct Span {
  const char* name;
  double start_us;
  double dur_us;
};

struct CellRun {
  ht::ScenarioResult result;
  ht::StatSet stats;
  double setup_s = 0.0;  // RunScenario entry -> on_start.
  double sim_s = 0.0;    // on_start -> on_finish.
  // Reference mode: differential oracle verdict.
  bool oracle_ok = true;
  uint64_t oracle_commands = 0;
  std::string oracle_report;
  // Traced mode.
  LayerSpans layers;
  std::vector<Span> spans;
  unsigned worker = 0;
};

struct PassOptions {
  Mode mode = Mode::kFast;
  unsigned width = 1;
  ht::OracleOptions oracle;
};

struct Pass {
  std::vector<CellRun> cells;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;  // Sum over cells.
  // Campaign workloads: the report built from the cells, and whether it
  // passed the campaign's validator.
  bool report_ok = true;
  std::string report_error;
  // Traced mode: the runner's profiler section (runner.run/runner.report
  // phase totals) for this pass alone.
  ht::JsonValue profile;
};

// Runs every cell of `workload` once on `options.width` workers and, for
// campaigns, builds and validates the campaign report. Results are in
// cell order regardless of the width.
Pass RunPass(const Workload& workload, const PassOptions& options);

// DRAM commands a device accepted, from its per-command counters.
uint64_t DramCommands(const ht::StatSet& stats);

// --- Output checks -----------------------------------------------------------

// Stats whose values legitimately differ between the fast and reference
// schedulers: the scheduler's own telemetry about how it scanned.
bool IsSchedulerSelfTelemetry(const std::string& stat);

// Empty when equal; otherwise the first difference. `skip` filters stats.
std::string DiffCell(const CellRun& a, const CellRun& b, bool (*skip)(const std::string&));

// The 60-cell E1 fixture (tests/test_golden_e1.cc), valid at seed 0 only.
struct GoldenCell {
  uint64_t cross_domain_flips;
  bool attack_planned;
};
const std::vector<std::vector<GoldenCell>>& GoldenE1();

// Folds one timed repeat into `diffs` (one slot per cell): the first way
// each cell differed from the first timed pass. A repeat is the same
// simulation, so it must match exactly, campaign report included.
void CompareRepeat(const Pass& first, const Pass& repeat, size_t repeat_index,
                   std::vector<std::string>* diffs);

struct CheckInputs {
  const Workload* workload = nullptr;
  const Pass* fast = nullptr;  // The first timed pass.
  const std::vector<std::string>* repeat_diffs = nullptr;  // From CompareRepeat.
  const Pass* reference = nullptr;
  const Pass* traced = nullptr;
  // Golden table override, for the checker's self-tests.
  const std::vector<std::vector<GoldenCell>>* golden = nullptr;
};

struct CheckOutcome {
  std::vector<std::string> failures;  // Per failed cell: "key: reason".
  uint64_t cells_failed = 0;
};

CheckOutcome CheckOutputs(const CheckInputs& inputs);

// --- Layer microbenches -----------------------------------------------------

// A layer exercised directly through its public functions. `done` is
// the work count read back from the layer itself; a microbench passes only
// when it matches `expected`.
struct MicrobenchResult {
  std::string name;
  double value = 0.0;  // Cost per operation, in `unit`.
  std::string unit;
  uint64_t expected = 0;
  uint64_t done = 0;
};

bool MicrobenchOk(const MicrobenchResult& result);

// MC queue held at `depth` reads: 64 mixed-row reads (DMA shape) or two
// same-bank conflicting rows (hammer shape). Cost per DRAM command.
MicrobenchResult RunMcQueueMicrobench(uint32_t depth, uint64_t reads);
// Cache::Lookup over a filled LLC, half hits. Cost per lookup.
MicrobenchResult RunCacheLookupMicrobench(uint64_t lookups);
// TenantManager::Init, then one Churn epoch, on the cloud workload's
// population in a fresh System. Two results: init ms and churn ms.
std::vector<MicrobenchResult> RunTenantMicrobenches(uint32_t tenants, int repeats);

// --- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metrics of one traced pass, against the untraced mean wall.
std::vector<Metric> LayerMetrics(const Pass& traced, double untraced_wall_s,
                                 const std::vector<MicrobenchResult>& micro);

// Chrome trace_event JSON of the traced pass's spans; `stamp` (host,
// build, seed, width) goes into its otherData.
bool WriteChromeTrace(const std::string& path, const Workload& workload, const Pass& traced,
                      const ht::JsonValue& stamp, std::string* error);

}  // namespace hb

#endif  // HAMMERBENCH_BENCH_H_
