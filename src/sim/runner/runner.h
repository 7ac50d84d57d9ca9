// The scenario runner library: the one place that knows how to turn a
// declarative ScenarioSpec (system + attack + defense combination) into a
// configured System, run it, and collect outcome metrics — serially, on
// the shared worker pool, or with telemetry attached. Consumed by the
// experiment benches, hammertime_cli, hammerfuzz, the sweep engine, and
// the tests; bench/bench_util.h only adds bench-main conveniences on top.
#ifndef HAMMERTIME_SRC_SIM_RUNNER_RUNNER_H_
#define HAMMERTIME_SRC_SIM_RUNNER_RUNNER_H_

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/argparse.h"
#include "common/telemetry/json.h"
#include "common/telemetry/trace.h"
#include "common/types.h"
#include "os/tenant.h"
#include "sim/scenario.h"
#include "sim/system.h"

namespace ht {

struct ScenarioSpec {
  SystemConfig system;
  DefenseKind defense = DefenseKind::kNone;
  HwMitigationKind hw = HwMitigationKind::kNone;
  AttackKind attack = AttackKind::kDoubleSided;
  uint32_t sides = 16;             // For kManySided.
  uint64_t pattern_seed = 0;       // For kPattern: PatternBuilder seed.
  uint64_t act_threshold = 256;    // Interrupt threshold for SW defenses.
  std::optional<bool> randomize_reset;  // Override the preset's choice.
  Cycle run_cycles = 800000;
  uint32_t tenants = 2;
  uint64_t pages_per_tenant = 512;
  bool benign_corunner = false;    // Victim tenant runs a random workload.
  // --- Cloud host model (src/os/tenant.h) -----------------------------------
  // A non-empty traffic mix switches RunScenario into cloud mode:
  // `tenants` becomes the slot count of a TenantManager population whose
  // streams multiplex onto the non-attacker cores, the run is split into
  // `epochs` windows with flip harvesting and churn at each boundary, and
  // per-tenant escape accounting replaces end-of-run flip attribution.
  // Empty = the classic two-tenant path, byte-identical to before.
  std::string traffic_mix;
  double churn_rate = 0.0;     // Fraction of eligible slots recycled per epoch.
  uint32_t epochs = 8;         // Harvest/churn boundaries per run (cloud mode).
  uint32_t attacker_slot = 0;  // Slot hammering; pinned across churn.
  uint32_t victim_slot = 1;    // Pinned co-located victim slot.
  // Stochastic-variation knob for sweeps: a nonzero seed perturbs the
  // simulation's RNG streams (flip patterns, randomized counter resets,
  // vendor remap) deterministically; 0 leaves the stock seeds untouched,
  // so all pre-sweep results are unchanged.
  uint64_t seed = 0;
};

struct ScenarioResult {
  SecurityOutcome security;
  PerfSummary perf;
  uint64_t defense_interrupts = 0;
  uint64_t page_moves = 0;
  uint64_t throttle_stalls = 0;
  uint64_t mitigation_refreshes = 0;
  bool attack_planned = true;  // False if isolation denied the attacker a plan.
  // --- Cloud mode (zero on the classic path) --------------------------------
  uint64_t escaped_flips = 0;      // Flips crossing a tenant allocation boundary.
  uint64_t tenants_hit = 0;        // Distinct victim slots receiving escapes.
  uint64_t churn_events = 0;       // Tenant slots recycled over the run.
  double flips_escaped_per_tenant = 0.0;  // escaped_flips / tenant slots.
  uint64_t tenant_map_fingerprint = 0;    // End-of-run page-map hash (determinism).
};

// The run budget of one job: `cycles`, capped for smoke tests. When
// HT_BENCH_SMOKE is set, every job runs for at most that many cycles —
// enough to exercise the full setup/run/assess path while keeping whole
// benches under a second for the `bench_smoke` CTest label. A value that
// is not a whole number > 0 (ParseUintToken) ends the process with exit
// status 2; ApplyRunnerFlags checks it before any scenario runs.
Cycle RunBudget(Cycle cycles);

// --- Telemetry plumbing ------------------------------------------------------

// Process-wide telemetry options, set once (via ApplyRunnerFlags or
// directly) before any RunScenarios call. Empty paths = off.
struct RunnerTelemetryOptions {
  std::string trace_out;    // Chrome trace_event JSON for all scenarios.
  std::string metrics_out;  // hammertime.metrics.v1 run-report document.
  Cycle sample_every = 0;   // Sampler period; defaulted when metrics_out set.
};

RunnerTelemetryOptions& RunnerTelemetry();

// Default sampler period when `--metrics-out` is given without an
// explicit `--sample-every`: coarse enough to stay cheap on full-length
// scenarios, fine enough for ~50 points on the default 800k-cycle run.
inline constexpr Cycle kDefaultSampleEvery = 16384;

// Test hook: drop all accumulated buffers/reports (fresh TraceSink).
void ResetRunnerTelemetry();

// Per-job telemetry capture. RunScenarios fills the `in` fields (one
// TraceBuffer per job, created in job order so the merged trace is
// deterministic under any worker count) and reads the `out` fields back
// on the calling thread.
struct ScenarioTelemetry {
  // in:
  std::string label;
  TraceBuffer* trace = nullptr;
  Cycle sample_every = 0;
  // out:
  JsonValue report;
};

// The System of one job (see RunScenarios), built with the job's trace
// buffer and sampler attached. Report fills the job's
// hammertime.run_report.v1; with telemetry off (null) it does nothing.
class JobSystem : public System {
 public:
  JobSystem(const SystemConfig& config, ScenarioTelemetry* telemetry)
      : JobSystem(std::chrono::steady_clock::now(), config, telemetry) {}

  void Report(JsonValue config, JsonValue result);
  // A job that ran its own workload: config {run_cycles}, result = the
  // throughput summary.
  void Report(Cycle run_cycles);

 private:
  JobSystem(std::chrono::steady_clock::time_point start, const SystemConfig& config,
            ScenarioTelemetry* telemetry);

  std::chrono::steady_clock::time_point start_;
  ScenarioTelemetry* telemetry_;
};

JsonValue ScenarioResultToJson(const ScenarioResult& result);

// Optional observation points inside RunScenario, for callers that need
// access to the live System (e.g. tools/hammerfuzz attaching the
// differential oracle). `on_start` fires after full setup, immediately
// before RunFor; `on_finish` fires after all results are collected, while
// the System is still alive. Both are skipped when null.
struct ScenarioHooks {
  std::function<void(System&)> on_start;
  std::function<void(System&)> on_finish;
  // Cloud mode only: fires after the final harvest, while the tenant
  // population is still alive (isolation-invariant tests read the
  // classified flip samples here). Skipped on the classic path.
  std::function<void(const TenantManager&)> on_tenants;
};

// Builds the standard two-tenant (attacker + victim) scenario, runs it,
// and collects outcome metrics. Isolation-centric defenses are expressed
// through `spec.system` (scheme + alloc policy) by the caller.
//
// With `telemetry` set, the scenario runs with its trace buffer and
// sampler attached and fills telemetry->report with a
// hammertime.run_report.v1 document (plus per-scenario wall-clock).
ScenarioResult RunScenario(ScenarioSpec spec, ScenarioTelemetry* telemetry = nullptr,
                           const ScenarioHooks* hooks = nullptr);

// Rewrites the --trace-out / --metrics-out files from everything
// accumulated so far. Called after every RunScenarios batch. A file that
// cannot be written ends the process with exit status 2 and an
// `error: cannot open <path>` line on stderr.
void FlushRunnerTelemetry();

// The one fan-out: runs job(i, telemetry) for every i in [0, count) on
// the shared worker pool. Each job runs its own JobSystem (RunScenario
// does) and writes only its own outcome slot, so outcomes are
// bit-identical to a serial loop for any worker count. With telemetry
// on, job i gets a ScenarioTelemetry labelled label(i), and the reports
// join the output files in job order after the batch; otherwise it gets
// null. `threads` = 0 resolves via HT_THREADS, then hardware concurrency.
void RunScenarios(size_t count, const std::function<std::string(size_t)>& label,
                  const std::function<void(size_t, ScenarioTelemetry*)>& job,
                  unsigned threads = 0);

// Closure form: job i, labelled "<name>.<i>", returns element i of the
// result (not bool: the jobs write their slots concurrently).
template <typename Job>
auto RunScenarios(const std::string& name, size_t count, Job job, unsigned threads = 0) {
  std::vector<std::invoke_result_t<Job&, size_t, ScenarioTelemetry*>> results(count);
  RunScenarios(
      count, [&name](size_t i) { return name + "." + std::to_string(i); },
      [&](size_t i, ScenarioTelemetry* telemetry) { results[i] = job(i, telemetry); }, threads);
  return results;
}

// Spec form: job i is RunScenario(specs[i]), labelled "<defense>.<attack>".
std::vector<ScenarioResult> RunScenarios(const std::vector<ScenarioSpec>& specs,
                                         unsigned threads = 0);

// --- Shared flag plumbing ----------------------------------------------------

// Registers the runner's shared flags (--threads, --profile) on `parser`,
// so every executable spells them identically.
void AddRunnerFlags(ArgParser& parser);

// Registers the telemetry flags (--trace-out, --metrics-out,
// --sample-every), for the executables that write them: hammertime_cli
// and the experiment benches. The campaign CLIs do not register them.
void AddTelemetryFlags(ArgParser& parser);

// Reads the shared flags back (a telemetry flag that was not registered
// reads as unset), installs the process-wide telemetry options
// (defaulting --sample-every when --metrics-out is set), and returns the
// worker count, resolved by ResolveThreadCount. A --trace-out or
// --metrics-out path that cannot be opened, or a malformed HT_THREADS or
// HT_BENCH_SMOKE, ends the process here, before any scenario runs, with
// exit status 2 and an `error: ...` line on stderr.
unsigned ApplyRunnerFlags(const ArgParser& parser);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_RUNNER_RUNNER_H_
