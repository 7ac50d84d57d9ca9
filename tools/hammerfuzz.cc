// hammerfuzz — randomized differential fuzzer for the simulator fast paths.
//
// Three case kinds, all replayable from a one-line seed (see
// check/generator.h for the format):
//
//  * device cases drive a bare DramDevice with random command streams
//    while the differential oracle (check/oracle.h) shadows every command
//    with the naive reference models;
//  * scenario cases build a full attack/defense System from the seed and
//    run it four ways — {skip-idle, tick-by-tick} × {serial, fanned out
//    by RunScenarios} — each with a SystemOracle attached, then require all
//    oracles clean, all ScenarioResults identical, and all CollectStats()
//    StatSets equal;
//  * pattern cases build a random HammeringPattern and cross-check the
//    builder's frame schedule and PatternHammerStream emission against
//    the naive modular-arithmetic expander (check/pattern_ref.h).
//
// A failing case is shrunk (smallest failing step/cycle count, then
// feature-disable mask bits) and written to --out as a replayable
// repro_*.seed file; --replay / --corpus re-run such files.
//
// Examples:
//   hammerfuzz --iterations 200 --seed 1 --out /tmp/fuzz
//   hammerfuzz --corpus tests/corpus
//   hammerfuzz --iterations 3 --seed 7 --inject-at 40 --out /tmp/fuzz
//   hammerfuzz --mode scenario --iterations 1 --seed 5 --inject-pick-at 200
//   hammerfuzz --replay /tmp/fuzz/repro_latest.seed
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/generator.h"
#include "check/oracle.h"
#include "common/argparse.h"
#include "sim/runner/runner.h"

using namespace ht;

namespace {

struct CliOptions {
  uint64_t iterations = 100;
  uint64_t seed = 1;
  std::string mode = "both";  // device | scenario | pattern | both.
  std::string out_dir = ".";
  std::string corpus_dir;     // Replay every *.seed file under this dir.
  std::string replay_file;    // Replay one seed file.
  uint64_t inject_at = 0;     // Arm oracle fault injection per case.
  uint64_t inject_pick_at = 0;  // Arm scheduler-reference fault injection.
  bool verbose = false;
};

// --- Scenario cases ----------------------------------------------------------

// Derives the full attack/defense scenario from the case seed. All values
// are drawn unconditionally and only *applied* under the feature mask, so
// shrinking a mask bit off leaves every other knob (and the System's
// whole random behaviour) intact — the same discipline as
// MakeFuzzDramConfig.
ScenarioSpec SpecFromCase(const FuzzCase& fuzz_case) {
  Rng rng(fuzz_case.seed ^ 0x5CE7A210ULL);
  ScenarioSpec spec;
  spec.run_cycles = fuzz_case.cycles;

  const auto attack = static_cast<AttackKind>(rng.NextBelow(6));
  const auto defense = static_cast<DefenseKind>(rng.NextBelow(6));
  const uint64_t hw_pick = rng.NextBelow(8);  // 0..3 none; 4..7 the 4 kinds.
  const uint32_t sides = 4 + static_cast<uint32_t>(rng.NextBelow(12));
  const uint64_t act_threshold = 128ull << rng.NextBelow(3);
  const auto alloc = static_cast<AllocPolicy>(rng.NextBelow(4));
  const bool closed_page = rng.NextBool(0.25);
  const bool benign_corunner = rng.NextBool(0.5);
  const uint32_t mac = 24 + static_cast<uint32_t>(rng.NextBelow(80));
  const bool trr_on = rng.NextBool(0.4);
  const uint32_t trr_entries = 2 + static_cast<uint32_t>(rng.NextBelow(4));
  const bool remap_on = rng.NextBool(0.3);
  const uint64_t remap_seed = rng.Next();
  const bool ecc_on = rng.NextBool(0.5);
  const bool use_refn = rng.NextBool(0.3);
  const uint32_t channels = 1u << rng.NextBelow(3);  // 1 / 2 / 4.

  spec.attack = attack;
  spec.defense = defense;
  spec.hw = hw_pick < 4 ? HwMitigationKind::kNone
                        : static_cast<HwMitigationKind>(hw_pick - 3);
  spec.sides = sides;
  spec.act_threshold = act_threshold;
  spec.system.alloc = alloc;
  spec.system.cores = 2;
  spec.system.mc.open_page = !closed_page;
  spec.system.mc.use_ref_neighbors = use_refn;
  spec.benign_corunner = benign_corunner;
  spec.pages_per_tenant = 256;
  spec.system.dram.org.channels = channels;

  // Short fuzz runs still see flips with a lowered MAC; kFuzzPlainTiming
  // pins the stock disturbance model instead.
  if ((fuzz_case.feature_mask & kFuzzPlainTiming) == 0) {
    spec.system.dram.disturbance.mac = mac;
  }
  if ((fuzz_case.feature_mask & kFuzzNoTrr) == 0 && trr_on) {
    spec.system.dram.trr.enabled = true;
    spec.system.dram.trr.table_entries = trr_entries;
  }
  if ((fuzz_case.feature_mask & kFuzzNoRemap) == 0 && remap_on) {
    spec.system.dram.remap.enabled = true;
    spec.system.dram.remap.seed = remap_seed;
  }
  spec.system.dram.ecc.enabled = (fuzz_case.feature_mask & kFuzzNoEcc) == 0 && ecc_on;
  return spec;
}

struct VariantOutcome {
  ScenarioResult result;
  StatSet stats;
  bool oracle_ok = true;
  uint64_t commands = 0;
  std::string oracle_report;
};

VariantOutcome RunScenarioVariant(const FuzzCase& fuzz_case, bool skip_idle) {
  ScenarioSpec spec = SpecFromCase(fuzz_case);
  spec.system.skip_idle = skip_idle;
  OracleOptions oracle_options;
  oracle_options.break_reference_after = fuzz_case.inject_after;
  oracle_options.break_scheduler_after = fuzz_case.inject_pick_after;
  SystemOracle oracle(oracle_options);
  VariantOutcome out;
  ScenarioHooks hooks;
  hooks.on_start = [&](System& system) { oracle.Attach(system); };
  hooks.on_finish = [&](System& system) {
    oracle.FinalCheck();
    out.stats = system.CollectStats();
    oracle.Detach(system);
  };
  out.result = RunScenario(spec, nullptr, &hooks);
  out.oracle_ok = oracle.ok();
  out.commands = oracle.commands_observed();
  if (!out.oracle_ok) {
    out.oracle_report = oracle.Report();
  }
  return out;
}

// First difference between two ScenarioResults, or "" when equal.
std::string DiffResults(const ScenarioResult& a, const ScenarioResult& b) {
  std::ostringstream out;
  const auto field = [&](const char* name, auto lhs, auto rhs) {
    if (out.tellp() == 0 && !(lhs == rhs)) {
      out << name << ": " << lhs << " vs " << rhs;
    }
  };
  field("flip_events", a.security.flip_events, b.security.flip_events);
  field("cross_domain_flips", a.security.cross_domain_flips, b.security.cross_domain_flips);
  field("intra_domain_flips", a.security.intra_domain_flips, b.security.intra_domain_flips);
  field("corrupted_lines", a.security.corrupted_lines, b.security.corrupted_lines);
  field("dos_lockups", a.security.dos_lockups, b.security.dos_lockups);
  field("ops", a.perf.ops, b.perf.ops);
  field("cycles", a.perf.cycles, b.perf.cycles);
  field("ops_per_kcycle", a.perf.ops_per_kcycle, b.perf.ops_per_kcycle);
  field("row_hit_rate", a.perf.row_hit_rate, b.perf.row_hit_rate);
  field("avg_read_latency", a.perf.avg_read_latency, b.perf.avg_read_latency);
  field("extra_acts", a.perf.extra_acts, b.perf.extra_acts);
  field("defense_interrupts", a.defense_interrupts, b.defense_interrupts);
  field("page_moves", a.page_moves, b.page_moves);
  field("throttle_stalls", a.throttle_stalls, b.throttle_stalls);
  field("mitigation_refreshes", a.mitigation_refreshes, b.mitigation_refreshes);
  field("attack_planned", a.attack_planned, b.attack_planned);
  return out.str();
}

// First difference between two StatSets (keys and values), or "".
std::string DiffStatSets(const StatSet& a, const StatSet& b) {
  if (a.counters().size() != b.counters().size() || a.gauges().size() != b.gauges().size() ||
      a.histograms().size() != b.histograms().size()) {
    return "stat name sets differ";
  }
  for (auto it_a = a.counters().begin(), it_b = b.counters().begin();
       it_a != a.counters().end(); ++it_a, ++it_b) {
    if (it_a->first != it_b->first) {
      return "counter name mismatch: " + it_a->first + " vs " + it_b->first;
    }
    if (it_a->second.value() != it_b->second.value()) {
      return "counter " + it_a->first + ": " + std::to_string(it_a->second.value()) + " vs " +
             std::to_string(it_b->second.value());
    }
  }
  for (auto it_a = a.gauges().begin(), it_b = b.gauges().begin(); it_a != a.gauges().end();
       ++it_a, ++it_b) {
    if (it_a->first != it_b->first) {
      return "gauge name mismatch: " + it_a->first + " vs " + it_b->first;
    }
    if (it_a->second.value() != it_b->second.value()) {
      return "gauge " + it_a->first + ": " + std::to_string(it_a->second.value()) + " vs " +
             std::to_string(it_b->second.value());
    }
  }
  for (auto it_a = a.histograms().begin(), it_b = b.histograms().begin();
       it_a != a.histograms().end(); ++it_a, ++it_b) {
    if (it_a->first != it_b->first) {
      return "histogram name mismatch: " + it_a->first + " vs " + it_b->first;
    }
    if (it_a->second != it_b->second) {
      return "histogram " + it_a->first + " differs";
    }
  }
  return "";
}

struct ScenarioCaseOutcome {
  bool failed = false;
  std::string report;  // Non-empty iff failed.
};

ScenarioCaseOutcome RunScenarioCase(const FuzzCase& fuzz_case) {
  // Serial pair, then the same pair fanned out by RunScenarios — the
  // runner's documented bit-identical contract under any worker count.
  VariantOutcome serial_skip = RunScenarioVariant(fuzz_case, /*skip_idle=*/true);
  VariantOutcome serial_tick = RunScenarioVariant(fuzz_case, /*skip_idle=*/false);
  const std::vector<VariantOutcome> parallel = RunScenarios(
      "fuzz", 2,
      [&](size_t i, ScenarioTelemetry*) { return RunScenarioVariant(fuzz_case, i == 0); },
      /*threads=*/2);

  std::ostringstream problems;
  const auto oracle_check = [&](const char* label, const VariantOutcome& v) {
    if (!v.oracle_ok) {
      problems << "[" << label << "] oracle divergence:\n" << v.oracle_report << "\n";
    }
  };
  oracle_check("serial/skip-idle", serial_skip);
  oracle_check("serial/tick", serial_tick);
  oracle_check("parallel/skip-idle", parallel[0]);
  oracle_check("parallel/tick", parallel[1]);

  const auto pair_check = [&](const char* label, const VariantOutcome& a,
                              const VariantOutcome& b) {
    if (const std::string diff = DiffResults(a.result, b.result); !diff.empty()) {
      problems << "[" << label << "] result mismatch: " << diff << "\n";
    }
    if (const std::string diff = DiffStatSets(a.stats, b.stats); !diff.empty()) {
      problems << "[" << label << "] stat mismatch: " << diff << "\n";
    }
    if (a.commands != b.commands) {
      problems << "[" << label << "] command count mismatch: " << a.commands << " vs "
               << b.commands << "\n";
    }
  };
  pair_check("skip-idle vs tick", serial_skip, serial_tick);
  pair_check("serial vs parallel (skip-idle)", serial_skip, parallel[0]);
  pair_check("serial vs parallel (tick)", serial_tick, parallel[1]);

  ScenarioCaseOutcome outcome;
  outcome.failed = problems.tellp() != 0;
  if (outcome.failed) {
    outcome.report = fuzz_case.ToSeedLine() + "\n" + problems.str();
  }
  return outcome;
}

// Shrinks a failing scenario case: halve the cycle budget while the case
// keeps failing, then greedily pin feature-disable bits, re-halving after
// each kept bit. Every accepted candidate is verified failing, so the
// result reproduces by construction.
FuzzCase ShrinkScenarioCase(const FuzzCase& failing) {
  const auto fails = [](const FuzzCase& c) { return RunScenarioCase(c).failed; };
  FuzzCase best = failing;
  const auto tighten_cycles = [&]() {
    while (best.cycles > 4000) {
      FuzzCase candidate = best;
      candidate.cycles = best.cycles / 2;
      if (!fails(candidate)) {
        break;
      }
      best = candidate;
    }
  };
  tighten_cycles();
  for (const uint32_t bit : {kFuzzNoTrr, kFuzzNoRemap, kFuzzNoEcc, kFuzzPlainTiming}) {
    FuzzCase candidate = best;
    candidate.feature_mask |= bit;
    if ((best.feature_mask & bit) == 0 && fails(candidate)) {
      best = candidate;
      tighten_cycles();
    }
  }
  return best;
}

// --- Case dispatch / repro files --------------------------------------------

struct CaseOutcome {
  bool failed = false;
  std::string report;
  std::string summary;  // One-line per-case info for --verbose.
};

CaseOutcome RunCase(const FuzzCase& fuzz_case) {
  CaseOutcome outcome;
  if (fuzz_case.kind == FuzzCase::Kind::kDevice) {
    const DeviceFuzzOutcome device = RunDeviceFuzz(fuzz_case);
    outcome.failed = device.failed();
    outcome.report = device.report;
    std::ostringstream summary;
    summary << "issued=" << device.issued << " illegal=" << device.illegal_attempts
            << " flips=" << device.flips;
    outcome.summary = summary.str();
  } else if (fuzz_case.kind == FuzzCase::Kind::kPattern) {
    const PatternFuzzOutcome pattern = RunPatternFuzz(fuzz_case);
    outcome.failed = pattern.failed();
    outcome.report = pattern.report;
    std::ostringstream summary;
    summary << "compared=" << pattern.compared
            << " schedule-mismatch=" << pattern.schedule_mismatches
            << " stream-mismatch=" << pattern.stream_mismatches;
    outcome.summary = summary.str();
  } else {
    const ScenarioCaseOutcome scenario = RunScenarioCase(fuzz_case);
    outcome.failed = scenario.failed;
    outcome.report = scenario.report;
    outcome.summary = "4-way differential";
  }
  return outcome;
}

FuzzCase ShrinkCase(const FuzzCase& failing) {
  switch (failing.kind) {
    case FuzzCase::Kind::kDevice:
      return ShrinkDeviceFuzz(failing);
    case FuzzCase::Kind::kPattern:
      return ShrinkPatternFuzz(failing);
    case FuzzCase::Kind::kScenario:
      break;
  }
  return ShrinkScenarioCase(failing);
}

void WriteRepro(const std::string& out_dir, const FuzzCase& shrunk, const std::string& report) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const char* kind_name = shrunk.kind == FuzzCase::Kind::kDevice    ? "device"
                          : shrunk.kind == FuzzCase::Kind::kPattern ? "pattern"
                                                                    : "scenario";
  std::ostringstream name;
  name << "repro_" << kind_name << "_" << std::hex << shrunk.seed << ".seed";
  std::ostringstream body;
  body << "# hammerfuzz reproducer (replay with: hammerfuzz --replay <this file>)\n";
  std::istringstream lines(report);
  for (std::string line; std::getline(lines, line);) {
    body << "# " << line << "\n";
  }
  body << shrunk.ToSeedLine() << "\n";
  for (const std::string& file : {name.str(), std::string("repro_latest.seed")}) {
    std::ofstream out(out_dir + "/" + file);
    out << body.str();
  }
  std::printf("wrote %s/%s (and repro_latest.seed)\n", out_dir.c_str(), name.str().c_str());
}

// Runs one case end to end: report + shrink + repro file on failure.
// Returns true when the case passed. Replay skips the shrink (the case
// came from a seed file and is already minimal — or is the corpus).
bool HandleCase(const FuzzCase& fuzz_case, const CliOptions& options, bool shrink = true) {
  const CaseOutcome outcome = RunCase(fuzz_case);
  if (options.verbose || outcome.failed) {
    std::printf("%s  %s  %s\n", outcome.failed ? "FAIL" : "ok",
                fuzz_case.ToSeedLine().c_str(), outcome.summary.c_str());
  }
  if (!outcome.failed) {
    return true;
  }
  std::printf("--- failure report ---\n%s\n", outcome.report.c_str());
  if (!shrink) {
    return false;
  }
  std::printf("shrinking...\n");
  const FuzzCase shrunk = ShrinkCase(fuzz_case);
  const CaseOutcome confirmed = RunCase(shrunk);
  std::printf("shrunk to: %s (still failing: %s)\n", shrunk.ToSeedLine().c_str(),
              confirmed.failed ? "yes" : "NO — report original");
  WriteRepro(options.out_dir, confirmed.failed ? shrunk : fuzz_case,
             confirmed.failed ? confirmed.report : outcome.report);
  return false;
}

// --- Replay ------------------------------------------------------------------

// Replays every seed line in `path`. Returns the number of failing cases;
// -1 if the file cannot be read or contains an unparsable line.
int ReplayFile(const std::string& path, const CliOptions& options) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "hammerfuzz: cannot open %s\n", path.c_str());
    return -1;
  }
  int failures = 0;
  for (std::string line; std::getline(in, line);) {
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    const std::optional<FuzzCase> fuzz_case = ParseSeedLine(line.substr(start));
    if (!fuzz_case.has_value()) {
      std::fprintf(stderr, "hammerfuzz: bad seed line in %s: %s\n", path.c_str(), line.c_str());
      return -1;
    }
    if (!HandleCase(*fuzz_case, options, /*shrink=*/false)) {
      ++failures;
    }
  }
  return failures;
}

int ReplayCorpus(const CliOptions& options) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(options.corpus_dir, ec)) {
    if (entry.path().extension() == ".seed") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "hammerfuzz: cannot read corpus dir %s\n", options.corpus_dir.c_str());
    return 2;
  }
  std::sort(files.begin(), files.end());
  int failures = 0;
  for (const std::string& file : files) {
    if (options.verbose) {
      std::printf("replaying %s\n", file.c_str());
    }
    const int file_failures = ReplayFile(file, options);
    if (file_failures < 0) {
      return 2;
    }
    failures += file_failures;
  }
  std::printf("corpus: %zu files, %d failing case(s)\n", files.size(), failures);
  return failures == 0 ? 0 : 1;
}

// --- Generation loop ---------------------------------------------------------

int Generate(const CliOptions& options) {
  Rng master(options.seed);
  uint64_t device_cases = 0;
  uint64_t scenario_cases = 0;
  uint64_t pattern_cases = 0;
  for (uint64_t i = 0; i < options.iterations; ++i) {
    FuzzCase fuzz_case;
    fuzz_case.seed = master.Next();
    const uint64_t steps_draw = master.NextBelow(24001);
    const uint64_t cycles_draw = master.NextBelow(80001);
    if (options.mode == "device") {
      fuzz_case.kind = FuzzCase::Kind::kDevice;
    } else if (options.mode == "scenario") {
      fuzz_case.kind = FuzzCase::Kind::kScenario;
    } else if (options.mode == "pattern") {
      fuzz_case.kind = FuzzCase::Kind::kPattern;
    } else {  // both: device-heavy, scenarios cost ~4 full-system runs.
      fuzz_case.kind = i % 4 == 3 ? FuzzCase::Kind::kScenario : FuzzCase::Kind::kDevice;
    }
    fuzz_case.steps = 8000 + steps_draw;
    fuzz_case.cycles = 40000 + cycles_draw;
    fuzz_case.inject_after = options.inject_at;
    fuzz_case.inject_pick_after = options.inject_pick_at;
    (fuzz_case.kind == FuzzCase::Kind::kDevice    ? device_cases
     : fuzz_case.kind == FuzzCase::Kind::kPattern ? pattern_cases
                                                  : scenario_cases)++;
    if (!HandleCase(fuzz_case, options)) {
      std::printf("hammerfuzz: FAILED after %llu case(s)\n",
                  static_cast<unsigned long long>(i + 1));
      return 1;
    }
  }
  std::printf(
      "hammerfuzz: %llu case(s) clean (%llu device, %llu scenario, %llu pattern), seed=%llu\n",
      static_cast<unsigned long long>(options.iterations),
      static_cast<unsigned long long>(device_cases),
      static_cast<unsigned long long>(scenario_cases),
      static_cast<unsigned long long>(pattern_cases),
      static_cast<unsigned long long>(options.seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("hammerfuzz", "differential fuzzer for the hammertime fast paths");
  parser.Option("iterations", "N", "random cases to generate", "100")
      .Option("seed", "S", "master seed for case generation (decimal or 0x hex)", "1")
      .Option("mode", "M", "device | scenario | pattern | both (3:1 device-heavy)", "both")
      .Option("out", "DIR", "where repro_*.seed files are written", ".")
      .Option("corpus", "DIR", "replay every *.seed file in DIR and exit")
      .Option("replay", "FILE", "replay one seed file and exit")
      .Option("inject-at", "N",
              "break the reference model after N commands (tests that the oracle fires)")
      .Option("inject-pick-at", "N",
              "break the FR-FCFS reference after N scheduling decisions (scenario cases)")
      .Flag("verbose", "one line per case")
      .Epilog(
          "Seed files hold one case per line (blank lines and # comments are\n"
          "skipped). Each line is self-contained and replayable on its own:\n"
          "\n"
          "  htfuzz v1 <kind> seed=0xHEX steps=N|cycles=N mask=0xHEX inject=N\n"
          "                   [inject_pick=N]\n"
          "\n"
          "where <kind> is device, scenario, or pattern; device and pattern\n"
          "cases carry steps=N, scenario cases carry cycles=N; mask holds the\n"
          "feature-disable bits pinned by shrinking; inject=N arms oracle\n"
          "fault injection after N commands (0 = off); inject_pick=N breaks the\n"
          "FR-FCFS reference after N scheduling decisions.\n"
          "\n"
          "Exit status: 0 all cases clean, 1 any failure, 2 usage error.\n");
  parser.ParseOrExit(argc, argv);
  CliOptions options;
  options.iterations = parser.GetUint("iterations");
  options.seed = parser.GetUint("seed");
  options.mode = parser.Get("mode");
  options.out_dir = parser.Get("out");
  options.corpus_dir = parser.Get("corpus");
  options.replay_file = parser.Get("replay");
  options.inject_at = parser.GetUint("inject-at");
  options.inject_pick_at = parser.GetUint("inject-pick-at");
  options.verbose = parser.GetBool("verbose");
  if (options.mode != "device" && options.mode != "scenario" && options.mode != "pattern" &&
      options.mode != "both") {
    std::fprintf(stderr, "hammerfuzz: bad --mode %s\n", options.mode.c_str());
    return 2;
  }
  if (!options.replay_file.empty()) {
    const int failures = ReplayFile(options.replay_file, options);
    if (failures < 0) {
      return 2;
    }
    std::printf("replay: %d failing case(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (!options.corpus_dir.empty()) {
    return ReplayCorpus(options);
  }
  return Generate(options);
}
