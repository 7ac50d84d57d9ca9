// hammerbench — one workload per invocation:
//
//   hammerbench --workload taxonomy|cloud|pattern --seed N --seconds S --trace 0|1
//
// Repeats the workload's fast path until S seconds have been measured,
// then runs the output checks (reference path + oracle, a traced pass,
// campaign report validation, invariants, golden values). --trace 0
// reports the end-to-end metrics over the timed repeats that follow a
// warm-up pass; --trace 1 reports the per-layer metrics of the traced
// pass and writes its spans as a Chrome trace. The last stdout line is one JSON object;
// the exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/telemetry/report.h"
#include "sim/sweep/speckey.h"

#ifndef HAMMERBENCH_BUILD_TYPE
#define HAMMERBENCH_BUILD_TYPE "unknown"
#endif

namespace hb {
namespace {

// Environment knobs that silently change what the simulator runs or how
// wide it fans out (HT_BENCH_SMOKE caps run_cycles; HT_THREADS sizes the
// shared pool; HT_PROFILE turns on the runner's profiler everywhere), or
// mark a sanitizer build. A measurement taken under any of them is not
// the benchmark.
constexpr const char* kForbiddenEnv[] = {"HT_BENCH_SMOKE", "HT_THREADS", "HT_PROFILE",
                                         "HT_SHARD_MIN_WINDOW", "HT_SANITIZE"};

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 10;
  int trace = 0;
  unsigned width = 0;  // 0 = min(4, nproc).
  std::string commit = "unknown";
};

int Usage(const char* error) {
  std::fprintf(stderr,
               "hammerbench: %s\n"
               "usage: hammerbench --workload taxonomy|cloud|pattern --seed N --seconds S "
               "--trace 0|1 [--width N] [--commit ID]\n",
               error);
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      args->seed = number;
    } else if (flag == "--seconds" && ParseUint(value, &number) && number >= 1) {
      args->seconds = number;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--width" && ParseUint(value, &number) && number >= 1 && number <= 64) {
      args->width = static_cast<unsigned>(number);
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      *error = "bad flag or value: " + flag + " " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// FNV-1a over every cell's result and full stat set: equal fingerprints
// mean bit-identical simulated outputs (across widths, repeats, commits).
std::string Fingerprint(const Pass& pass) {
  std::string text;
  for (const CellRun& run : pass.cells) {
    text += ht::ScenarioResultToJson(run.result).ToString(-1);
    text += ht::StatSetToJson(run.stats).ToString(-1);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(ht::Fnv1a64(text)));
  return hex;
}

// Peak resident memory of this program: VmHWM, which starts afresh at
// exec. ru_maxrss does not; it keeps the launcher's peak when that is
// higher.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) {
    sum += value;
  }
  return sum / static_cast<double>(values.size());
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  ht::JsonValue out = ht::JsonValue::Object();
  for (const Metric& metric : metrics) {
    ht::JsonValue entry = ht::JsonValue::Object();
    entry.Set("value", ht::JsonValue::Double(metric.value));
    entry.Set("unit", ht::JsonValue::Str(metric.unit));
    out.Set(metric.name, std::move(entry));
  }
  return out.ToString(-1);
}

int Run(const Args& args) {
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "hammerbench: refusing to run with %s set\n", name);
      return 2;
    }
  }
  if (SanitizerBuild()) {
    std::fprintf(stderr, "hammerbench: refusing to measure a sanitizer build\n");
    return 2;
  }
  const std::optional<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (!workload.has_value()) {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned width = args.width != 0 ? args.width : std::min(4u, nproc);
  ht::JsonValue stamp = ht::JsonValue::Object();
  stamp.Set("workload", ht::JsonValue::Str(workload->name));
  stamp.Set("seed", ht::JsonValue::Uint(args.seed));
  stamp.Set("seconds", ht::JsonValue::Uint(args.seconds));
  stamp.Set("trace", ht::JsonValue::Uint(args.trace));
  stamp.Set("cells", ht::JsonValue::Uint(workload->cells.size()));
  stamp.Set("width", ht::JsonValue::Uint(width));
  stamp.Set("nproc", ht::JsonValue::Uint(nproc));
  stamp.Set("cpu", ht::JsonValue::Str(CpuModel()));
  stamp.Set("build", ht::JsonValue::Str(HAMMERBENCH_BUILD_TYPE));
  stamp.Set("compiler", ht::JsonValue::Str(__VERSION__));
  stamp.Set("commit", ht::JsonValue::Str(args.commit));
  std::printf("# stamp %s\n", stamp.ToString(-1).c_str());
  std::fflush(stdout);

  // Timed section: a warm-up pass, then whole passes of the fast path
  // while the next one is expected to end within the budget (at least
  // one). wall_s and cpu_s are means over the timed passes, setup_s is
  // their median. Only the warm-up pass's outputs are kept: each timed
  // pass is compared with it and dropped, so peak memory does not grow
  // with the number of passes.
  const Clock::time_point budget_start = Clock::now();
  const Pass first = RunPass(*workload, {Mode::kFast, width, {}});
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> setup;
  std::vector<std::string> repeat_diffs(workload->cells.size());
  double last_wall_s = first.wall_s;
  while (wall.empty() || SecondsBetween(budget_start, Clock::now()) + last_wall_s <=
                             static_cast<double>(args.seconds)) {
    const Pass repeat = RunPass(*workload, {Mode::kFast, width, {}});
    wall.push_back(repeat.wall_s);
    cpu.push_back(repeat.cpu_s);
    setup.push_back(repeat.setup_s);
    last_wall_s = repeat.wall_s;
    CompareRepeat(first, repeat, wall.size(), &repeat_diffs);
  }
  const double peak_rss_mb = PeakRssMb();

  // Output checks, outside the timed section.
  const Pass reference = RunPass(*workload, {Mode::kReference, width, {}});
  const Pass traced = RunPass(*workload, {Mode::kTraced, width, {}});
  CheckInputs inputs;
  inputs.workload = &*workload;
  inputs.fast = &first;
  inputs.repeat_diffs = &repeat_diffs;
  inputs.reference = &reference;
  inputs.traced = &traced;
  const CheckOutcome outcome = CheckOutputs(inputs);
  std::vector<std::string> failures = outcome.failures;

  const double wall_s = Mean(wall);
  for (const auto& [name, values] : {std::pair{"wall_s", &wall}, std::pair{"cpu_s", &cpu}}) {
    std::printf("# pass %s:", name);
    for (const double value : *values) {
      std::printf(" %.4f", value);
    }
    std::printf("\n");
  }
  std::printf("# passes=%zu wall_s=%.4f cpu_s=%.4f setup_s=%.4f peak_rss_mb=%.1f "
              "reference_wall_s=%.4f traced_wall_s=%.4f fingerprint=%s\n",
              wall.size(), wall_s, Mean(cpu), Median(setup), peak_rss_mb, reference.wall_s,
              traced.wall_s, Fingerprint(first).c_str());

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {{"wall_s", wall_s, "s"},
               {"cpu_s", Mean(cpu), "s"},
               {"setup_s", Median(setup), "s"},
               {"peak_rss_mb", peak_rss_mb, "MB"}};
  } else {
    std::vector<MicrobenchResult> micro = {RunMcQueueMicrobench(64, 20000),
                                         RunMcQueueMicrobench(2, 200000),
                                         RunCacheLookupMicrobench(4000000)};
    for (MicrobenchResult& tenant : RunTenantMicrobenches(1024, 3)) {
      micro.push_back(std::move(tenant));
    }
    for (const MicrobenchResult& bench : micro) {
      if (!MicrobenchOk(bench)) {
        failures.push_back("microbench " + bench.name + ": did " + std::to_string(bench.done) +
                           " of " + std::to_string(bench.expected) + " operations");
      }
    }
    metrics = LayerMetrics(traced, wall_s, micro);
    std::printf("# per-layer (%s, traced pass over %zu cells)\n", workload->name.c_str(),
                workload->cells.size());
    for (const Metric& metric : metrics) {
      std::printf("#   %-26s %18.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    const std::string path =
        ".bench_out/" + workload->name + "-seed" + std::to_string(args.seed) + ".trace.json";
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    std::string error;
    if (!WriteChromeTrace(path, *workload, traced, stamp, &error)) {
      failures.push_back("trace: " + error);
    } else {
      std::printf("# trace written to %s\n", path.c_str());
    }
  }

  std::printf("# cells=%zu cells_failed=%llu\n", workload->cells.size(),
              static_cast<unsigned long long>(outcome.cells_failed));
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::printf("# FAIL %s\n", failures[i].c_str());
    std::fprintf(stderr, "hammerbench: FAIL %s\n", failures[i].c_str());
  }
  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", workload->cells.size(),
              static_cast<unsigned long long>(outcome.cells_failed),
              JsonMetrics(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hb

int main(int argc, char** argv) {
  hb::Args args;
  std::string error;
  if (!hb::ParseArgs(argc, argv, &args, &error)) {
    return hb::Usage(error.c_str());
  }
  return hb::Run(args);
}
