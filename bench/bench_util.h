// Thin bench-only conveniences for the experiment benches (bench_e1..e13).
// All scenario machinery (ScenarioSpec, RunScenario, RunScenarios, telemetry
// plumbing) lives in the runner library — src/sim/runner/runner.h — which
// every bench consumes through this header; here we only add the shared
// bench-main entry glue, re-export ht::Table for rendering the
// paper-style tables, and pull in the attack/OS/workload headers the
// benches' own jobs build their systems from.
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
// output path cannot be opened or HT_THREADS is malformed), and returns
// the resolved worker count. A malformed command line exits 2; --help
// prints the usage and exits 0.
inline unsigned BenchMain(int argc, char** argv) {
  ArgParser parser(argv[0], "hammertime experiment bench");
  AddRunnerFlags(parser);
  AddTelemetryFlags(parser);
  parser.ParseOrExit(argc, argv);
  return ApplyRunnerFlags(parser);
}

}  // namespace ht

#endif  // HAMMERTIME_BENCH_BENCH_UTIL_H_
