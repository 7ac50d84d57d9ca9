// Thin bench-only conveniences for the experiment benches (bench_e1..e13).
// All scenario machinery (ScenarioSpec, RunScenario(s), telemetry
// plumbing) lives in the runner library — src/sim/runner/runner.h — which
// every bench consumes through this header; here we only add the shared
// bench-main entry glue, re-export ht::Table for rendering the
// paper-style tables, and pull in the attack/OS/workload headers the
// hand-rolled benches build their custom systems from.
#ifndef HAMMERTIME_BENCH_BENCH_UTIL_H_
#define HAMMERTIME_BENCH_BENCH_UTIL_H_

#include "attack/hammer.h"
#include "attack/planner.h"
#include "common/argparse.h"
#include "common/table.h"
#include "os/address_space.h"
#include "sim/runner/runner.h"
#include "sim/workloads.h"

namespace ht {

// Parses the shared runner flags (--threads, --profile) and the telemetry
// flags (--trace-out, --metrics-out, --sample-every) for a bench main,
// installs the process-wide telemetry options (exiting 2 at once when an
// output path cannot be opened), and returns the requested worker count
// (0 = auto). Unknown flags and positional arguments are tolerated so
// harness wrappers can pass extra arguments through.
inline unsigned BenchMain(int argc, char** argv) {
  ArgParser parser(argv != nullptr && argc > 0 ? argv[0] : "bench",
                   "hammertime experiment bench");
  AddRunnerFlags(parser);
  AddTelemetryFlags(parser);
  parser.AllowUnknown().AllowPositionals("");
  parser.Parse(argc, argv);
  return ApplyRunnerFlags(parser);
}

}  // namespace ht

#endif  // HAMMERTIME_BENCH_BENCH_UTIL_H_
