// Cross-revision trend regression gating over the repo's telemetry
// documents (metrics.v1, sweep_report.v1, BENCH_*.json).
//
// The comparison walks baseline and current in lockstep (structure must
// match) and classifies every numeric leaf by key name:
//
//   * counters / derived-from-counters (default) — exact match. The
//     simulator is deterministic, so any drift in a counter is a fidelity
//     change, not noise.
//   * wall-clock ("*wall_seconds*", "*seconds*") — compared as this
//     document's share of the summed wall-clock class, one-sided
//     (regression = share grew past tolerance). Normalizing by the
//     document's own total makes the gate invariant to overall host
//     speed: a uniformly slower machine scales every leaf and leaves the
//     shares untouched, while one phase regressing shifts its share.
//   * rates ("*cycles_per_sec*", "*per_sec*") — normalized shares too,
//     one-sided the other way (regression = share shrank).
//   * speedup ratios ("*speedup*") — direct one-sided ratio:
//     current >= baseline / tolerance.
//   * host-shape keys ("pool_threads", "threads"), the whole `host`
//     subtree and the whole `profile` subtree — skipped; they describe
//     the machine or the profiler's own nondeterministic measurements.
//
// InjectSlowdown manufactures a deterministic regression (the WILL_FAIL
// ctest case): it scales the wall-clock leaves of one subtree up and its
// rate leaves down, exactly what a real 2x slowdown of that phase does.
#ifndef HAMMERTIME_SRC_COMMON_TELEMETRY_TREND_H_
#define HAMMERTIME_SRC_COMMON_TELEMETRY_TREND_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry/json.h"

namespace ht {

enum class MetricClass : uint8_t {
  kExact,        // Deterministic counter/config value: must match exactly.
  kWallSeconds,  // Lower is better; compared as normalized share.
  kRate,         // Higher is better; compared as normalized share.
  kSpeedup,      // Higher is better; compared as a direct ratio.
  kIgnored,      // Host-dependent; never gated.
};

// Classification by key name (see file comment for the rules).
MetricClass ClassifyMetric(std::string_view key);

struct TrendOptions {
  // Multiplicative slack for the timing classes. 1.5 tolerates 50% share
  // drift; committed-baseline gates use a looser value because the
  // baseline was produced on a different host.
  double tolerance = 1.5;
  // Wall/rate leaves whose share is below this floor in both documents
  // are too small to gate meaningfully and are skipped.
  double min_share = 0.005;
};

struct TrendIssue {
  std::string path;  // Dotted key path of the offending leaf.
  std::string what;  // Human-readable description.
};

// True when `current` holds the line against `baseline`; otherwise false
// with one TrendIssue per regression (structural mismatches included).
bool TrendCompare(const JsonValue& baseline, const JsonValue& current,
                  const TrendOptions& options, std::vector<TrendIssue>* issues);

// Returns `doc` with a `factor`x slowdown injected into the subtree
// rooted at the dotted path `scope` (the whole document when `scope` is
// empty): wall-clock leaves multiplied, rate and speedup leaves divided.
JsonValue InjectSlowdown(const JsonValue& doc, double factor, std::string_view scope = {});

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_TELEMETRY_TREND_H_
