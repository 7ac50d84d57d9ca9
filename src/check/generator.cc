#include "check/generator.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "check/pattern_ref.h"
#include "dram/device.h"

namespace ht {
namespace {

const char* FuzzKindName(FuzzCase::Kind kind) {
  switch (kind) {
    case FuzzCase::Kind::kDevice:
      return "device";
    case FuzzCase::Kind::kScenario:
      return "scenario";
    case FuzzCase::Kind::kPattern:
      return "pattern";
  }
  return "device";
}

}  // namespace

std::string FuzzCase::ToSeedLine() const {
  std::ostringstream out;
  out << "htfuzz v1 " << FuzzKindName(kind) << " seed=0x" << std::hex << seed << std::dec;
  if (kind == Kind::kScenario) {
    out << " cycles=" << cycles;
  } else {
    out << " steps=" << steps;
  }
  out << " mask=0x" << std::hex << feature_mask << std::dec << " inject=" << inject_after;
  if (inject_pick_after != 0) {
    out << " inject_pick=" << inject_pick_after;
  }
  return out.str();
}

std::optional<FuzzCase> ParseSeedLine(const std::string& line) {
  std::istringstream in(line);
  std::string magic, version, kind;
  if (!(in >> magic >> version >> kind) || magic != "htfuzz" || version != "v1") {
    return std::nullopt;
  }
  FuzzCase fuzz_case;
  if (kind == "device") {
    fuzz_case.kind = FuzzCase::Kind::kDevice;
  } else if (kind == "scenario") {
    fuzz_case.kind = FuzzCase::Kind::kScenario;
  } else if (kind == "pattern") {
    fuzz_case.kind = FuzzCase::Kind::kPattern;
  } else {
    return std::nullopt;
  }
  std::string token;
  bool seen_seed = false;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return std::nullopt;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    char* end = nullptr;
    const uint64_t parsed = std::strtoull(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0') {
      return std::nullopt;
    }
    if (key == "seed") {
      fuzz_case.seed = parsed;
      seen_seed = true;
    } else if (key == "steps") {
      fuzz_case.steps = parsed;
    } else if (key == "cycles") {
      fuzz_case.cycles = parsed;
    } else if (key == "mask") {
      fuzz_case.feature_mask = static_cast<uint32_t>(parsed);
    } else if (key == "inject") {
      fuzz_case.inject_after = parsed;
    } else if (key == "inject_pick") {
      fuzz_case.inject_pick_after = parsed;
    } else {
      return std::nullopt;
    }
  }
  if (!seen_seed) {
    return std::nullopt;
  }
  return fuzz_case;
}

DramConfig MakeFuzzDramConfig(uint64_t seed, uint32_t feature_mask) {
  DramConfig config = DramConfig::Tiny();
  config.name = "fuzz";
  Rng rng(seed ^ 0xF0CC5EEDULL);

  // Every value is drawn unconditionally so that masking one feature off
  // (shrinking) leaves all the others — and the command stream — intact.
  const uint32_t banks = 2u << rng.NextBelow(2);              // 2 or 4.
  const uint32_t subarrays = 2u << rng.NextBelow(2);          // 2 or 4.
  const uint32_t rows_per_subarray = 8u << rng.NextBelow(3);  // 8 / 16 / 32.

  DramTiming timing;  // Defaults = the DDR4-2400-like profile.
  timing.tRCD = 10 + static_cast<uint32_t>(rng.NextBelow(8));
  timing.tRP = 10 + static_cast<uint32_t>(rng.NextBelow(8));
  timing.tRAS = 28 + static_cast<uint32_t>(rng.NextBelow(12));
  timing.tRC = timing.tRAS + timing.tRP;
  timing.tRRD = 4 + static_cast<uint32_t>(rng.NextBelow(4));
  timing.tFAW = 20 + static_cast<uint32_t>(rng.NextBelow(12));
  timing.tCCD = 4 + static_cast<uint32_t>(rng.NextBelow(4));
  timing.tCL = 12 + static_cast<uint32_t>(rng.NextBelow(6));
  timing.tCWL = 10 + static_cast<uint32_t>(rng.NextBelow(4));
  timing.tRTP = 6 + static_cast<uint32_t>(rng.NextBelow(6));
  timing.tWR = 12 + static_cast<uint32_t>(rng.NextBelow(8));
  timing.tWTR = 6 + static_cast<uint32_t>(rng.NextBelow(6));
  timing.tRFC = 200 + static_cast<uint32_t>(rng.NextBelow(200));
  timing.tRFCsb = 80 + static_cast<uint32_t>(rng.NextBelow(60));

  const uint32_t refs_per_window = 16u << rng.NextBelow(3);  // 16 / 32 / 64.
  // Low MAC keeps the disturbance accumulators near the threshold under
  // the hot-band ACTs (see NextDeviceCommand).
  const uint32_t mac = 16 + static_cast<uint32_t>(rng.NextBelow(150));
  const uint32_t blast = 1 + static_cast<uint32_t>(rng.NextBelow(3));
  const uint32_t max_flip_bits = 1 + static_cast<uint32_t>(rng.NextBelow(4));

  const bool trr_on = rng.NextBool(0.5);
  const uint32_t trr_entries = 2 + static_cast<uint32_t>(rng.NextBelow(3));
  const uint32_t trr_per_ref = 1 + static_cast<uint32_t>(rng.NextBelow(2));
  const bool trr_sample_all = rng.NextBool(0.5);

  const bool remap_on = rng.NextBool(0.3);
  const bool remap_cross = rng.NextBool(0.5);
  const uint64_t remap_seed = rng.Next();
  const bool ecc_on = rng.NextBool(0.5);
  const uint64_t flip_seed = rng.Next();

  if ((feature_mask & kFuzzTinyGeometry) == 0) {
    config.org.banks = banks;
    config.org.subarrays_per_bank = subarrays;
    config.org.rows_per_subarray = rows_per_subarray;
  }
  if ((feature_mask & kFuzzPlainTiming) == 0) {
    config.timing = timing;
  }
  config.retention.ref_commands_per_window = refs_per_window;
  config.disturbance.mac = mac;
  config.disturbance.blast_radius = blast;
  config.disturbance.max_flip_bits = max_flip_bits;
  if ((feature_mask & kFuzzNoTrr) == 0 && trr_on) {
    config.trr.enabled = true;
    config.trr.table_entries = trr_entries;
    config.trr.refreshes_per_ref = trr_per_ref;
    config.trr.sample_probability = trr_sample_all ? 1.0 : 0.75;
  }
  if ((feature_mask & kFuzzNoRemap) == 0 && remap_on) {
    config.remap.enabled = true;
    config.remap.remap_fraction = 0.05;
    config.remap.cross_subarray = remap_cross;
    config.remap.seed = remap_seed;
  }
  config.ecc.enabled = (feature_mask & kFuzzNoEcc) == 0 && ecc_on;
  config.flip_seed = flip_seed;
  return config;
}

DdrCommand NextDeviceCommand(Rng& rng, const DramConfig& config) {
  // A fixed number of draws per call, whatever command comes out: the
  // stream stays aligned when shrinking toggles config features.
  const uint32_t bank = static_cast<uint32_t>(rng.NextBelow(config.org.banks));
  const uint32_t row = static_cast<uint32_t>(rng.NextBelow(config.org.rows_per_bank()));
  const uint32_t column = static_cast<uint32_t>(rng.NextBelow(config.org.columns));
  const uint64_t choice = rng.NextBelow(8);
  const bool ap = rng.NextBool(0.3);
  const uint32_t blast = 1 + static_cast<uint32_t>(rng.NextBelow(3));
  switch (choice) {
    case 0:  // Hammer a small hot band: concentrates neighbour-accumulator
             // and TRR-tracker pressure that uniform rows never build.
      return DdrCommand::Act(0, bank,
                             config.org.rows_per_subarray / 2 + row % kFuzzHotRows);
    case 1:  // ACTs get double weight: they drive the disturbance model.
      return DdrCommand::Act(0, bank, row);
    case 2:
      return DdrCommand::Pre(0, bank);
    case 3:
      return DdrCommand::Rd(0, bank, column, ap);
    case 4:
      return DdrCommand::Wr(0, bank, column, ap);
    case 5:
      return DdrCommand::PreAll(0);
    case 6:
      return DdrCommand::RefSb(0, bank);
    default:
      return DdrCommand::RefNeighbors(0, bank, row, blast);
  }
}

DeviceFuzzOutcome RunDeviceFuzz(const FuzzCase& fuzz_case) {
  const DramConfig config = MakeFuzzDramConfig(fuzz_case.seed, fuzz_case.feature_mask);
  DramDevice device(config, 0);
  OracleOptions oracle_options;
  oracle_options.break_reference_after = fuzz_case.inject_after;
  DeviceOracle oracle(device, /*act_counter=*/nullptr, oracle_options);
  device.set_check_observer(&oracle);

  Rng rng(fuzz_case.seed);
  Cycle now = 0;
  Cycle next_ref = config.RefPeriod();
  DeviceFuzzOutcome outcome;

  auto issue_expecting_ok = [&](const DdrCommand& cmd, Cycle at) {
    if (device.Issue(cmd, at) != TimingVerdict::kOk) {
      ++outcome.check_issue_mismatches;  // Scheduled at earliest; must pass.
    }
  };

  for (uint64_t i = 0; i < fuzz_case.steps; ++i) {
    now += 1 + rng.NextBelow(8);
    // Refresh keeps priority, as a real controller would schedule it.
    if (now >= next_ref) {
      const DdrCommand prea = DdrCommand::PreAll(0);
      now = std::max(now, device.EarliestCycle(prea));
      issue_expecting_ok(prea, now);
      const DdrCommand ref = DdrCommand::Ref(0);
      now = std::max(now + 1, device.EarliestCycle(ref));
      issue_expecting_ok(ref, now);
      next_ref += config.RefPeriod();
      continue;
    }
    const DdrCommand cmd = NextDeviceCommand(rng, config);
    const Cycle at = std::max(now, device.EarliestCycle(cmd));
    const TimingVerdict precheck = device.Check(cmd, at);
    const TimingVerdict verdict = device.Issue(cmd, at);
    if (precheck != verdict) {
      ++outcome.check_issue_mismatches;
    }
    if (verdict == TimingVerdict::kOk) {
      ++outcome.issued;
      now = at;
    } else {
      ++outcome.illegal_attempts;  // Structural (e.g. RD on closed bank).
    }
  }
  oracle.FinalCheck();
  device.set_check_observer(nullptr);

  outcome.flips = device.total_flip_events();
  outcome.retention_violations = device.CountRetentionViolations(now);
  outcome.oracle_divergences = oracle.total_divergences();
  if (outcome.failed()) {
    std::ostringstream report;
    report << fuzz_case.ToSeedLine() << "\n"
           << oracle.Report() << "\nretention_violations=" << outcome.retention_violations
           << " check_issue_mismatches=" << outcome.check_issue_mismatches;
    outcome.report = report.str();
  }
  return outcome;
}

FuzzCase ShrinkDeviceFuzz(const FuzzCase& failing) {
  const auto fails = [](const FuzzCase& c) { return RunDeviceFuzz(c).failed(); };
  FuzzCase best = failing;

  // Binary search the smallest failing step count. The loop invariant is
  // that `hi` always names a verified-failing run, so the result fails
  // even where failure is not perfectly monotone in steps (retention).
  const auto tighten_steps = [&]() {
    uint64_t lo = 1;
    uint64_t hi = best.steps;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      FuzzCase candidate = best;
      candidate.steps = mid;
      if (fails(candidate)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    best.steps = hi;
  };
  tighten_steps();

  for (const uint32_t bit :
       {kFuzzNoTrr, kFuzzNoRemap, kFuzzNoEcc, kFuzzPlainTiming, kFuzzTinyGeometry}) {
    FuzzCase candidate = best;
    candidate.feature_mask |= bit;
    if ((best.feature_mask & bit) == 0 && fails(candidate)) {
      best = candidate;
      tighten_steps();
    }
  }
  return best;
}

namespace {

// Seed-jittered generator envelope: exercises small and large frames,
// patterns with and without fillers, and tight aggressor budgets.
PatternParams FuzzPatternParams(uint64_t seed) {
  Rng rng(seed ^ 0x9A77FA22ULL);
  PatternParams params;
  params.slots_per_frame = 8u << rng.NextBelow(4);  // 8 / 16 / 32 / 64.
  params.max_frames = 2u << rng.NextBelow(3);       // 2 / 4 / 8.
  params.max_sets = 2 + static_cast<uint32_t>(rng.NextBelow(5));
  params.max_aggressors = 4 + static_cast<uint32_t>(rng.NextBelow(9));
  params.num_fillers = static_cast<uint32_t>(rng.NextBelow(3));
  return params;
}

bool PatternFuzzFail(PatternFuzzOutcome* outcome, const FuzzCase& fuzz_case,
                     const std::string& what) {
  outcome->build_failures = 1;
  outcome->report = fuzz_case.ToSeedLine() + "\n" + what;
  return false;
}

}  // namespace

PatternFuzzOutcome RunPatternFuzz(const FuzzCase& fuzz_case) {
  PatternFuzzOutcome outcome;
  const PatternParams params = FuzzPatternParams(fuzz_case.seed);
  const HammeringPattern pattern = PatternBuilder(params).Build(fuzz_case.seed);
  std::string error;
  if (!pattern.Validate(&error)) {
    PatternFuzzFail(&outcome, fuzz_case, "builder produced invalid pattern: " + error);
    return outcome;
  }

  std::vector<PatternRefAccess> reference;
  if (!ExpandPatternReference(pattern, &reference, &error) || reference.empty()) {
    PatternFuzzFail(&outcome, fuzz_case, "reference expander rejected pattern: " + error);
    return outcome;
  }

  // Differential half 1: occurrence iteration (Materialize) against the
  // per-slot modular expander, with the same filler rule applied on top.
  {
    const std::vector<int32_t> schedule = pattern.Materialize();
    std::vector<PatternRefAccess> materialized;
    uint64_t filler_ordinal = 0;
    for (uint32_t slot = 0; slot < pattern.total_slots(); ++slot) {
      PatternRefAccess access;
      access.slot = slot;
      if (schedule[slot] == kFillerSlot) {
        if (pattern.num_fillers == 0) {
          continue;
        }
        access.id = pattern.num_aggressors +
                    static_cast<uint32_t>(filler_ordinal % pattern.num_fillers);
        access.filler = true;
        ++filler_ordinal;
      } else {
        access.id = static_cast<uint32_t>(schedule[slot]);
        access.filler = false;
      }
      materialized.push_back(access);
    }
    if (materialized.size() != reference.size()) {
      ++outcome.schedule_mismatches;
    } else {
      for (size_t i = 0; i < reference.size(); ++i) {
        if (materialized[i].slot != reference[i].slot ||
            materialized[i].id != reference[i].id ||
            materialized[i].filler != reference[i].filler) {
          ++outcome.schedule_mismatches;
        }
      }
    }
  }

  // Differential half 2: the stream's emitted load+flush schedule against
  // the reference list (wrapping periods), `steps` accesses deep. The
  // emission is prefix-stable in steps, so shrinking can binary-search.
  PatternStreamConfig stream_config;
  stream_config.pattern = pattern;
  for (uint32_t id = 0; id < pattern.total_ids(); ++id) {
    stream_config.vas.push_back(0x10000 + static_cast<VirtAddr>(id) * kLineBytes);
  }
  PatternHammerStream stream(stream_config);
  for (uint64_t i = 0; i < fuzz_case.steps; ++i) {
    const PatternRefAccess& expect = reference[i % reference.size()];
    VirtAddr want = stream_config.vas[expect.id];
    if (fuzz_case.inject_after != 0 && i >= fuzz_case.inject_after) {
      want ^= kLineBytes;  // Fault injection: the cross-check must fire.
    }
    const CoreOp load = stream.Next();
    const CoreOp flush = stream.Next();
    if (load.kind != CoreOpKind::kLoad || load.va != want ||
        flush.kind != CoreOpKind::kFlush || flush.va != want) {
      ++outcome.stream_mismatches;
    }
    ++outcome.compared;
  }

  if (outcome.failed()) {
    std::ostringstream report;
    report << fuzz_case.ToSeedLine() << "\npattern seed=0x" << std::hex << pattern.seed
           << std::dec << " frames=" << pattern.frames
           << " slots_per_frame=" << pattern.slots_per_frame
           << " sets=" << pattern.sets.size() << "\nschedule_mismatches="
           << outcome.schedule_mismatches << " stream_mismatches=" << outcome.stream_mismatches
           << " compared=" << outcome.compared;
    outcome.report = report.str();
  }
  return outcome;
}

FuzzCase ShrinkPatternFuzz(const FuzzCase& failing) {
  const auto fails = [](const FuzzCase& c) { return RunPatternFuzz(c).failed(); };
  FuzzCase best = failing;
  uint64_t lo = 1;
  uint64_t hi = best.steps;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    FuzzCase candidate = best;
    candidate.steps = mid;
    if (fails(candidate)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  best.steps = hi;
  return best;
}

}  // namespace ht
