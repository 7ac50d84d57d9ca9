// E11 — Enclave memory scenarios (§4.4).
//
// An integrity-checked enclave converts Rowhammer corruption into
// denial-of-service (system lockup on the failed check); an unchecked
// enclave is silently corrupted. Each defense class is then applied to
// the enclave's memory.
#include <cstdio>
#include <vector>

#include "attack/hammer.h"
#include "attack/planner.h"
#include "bench/bench_util.h"

namespace ht {
namespace {

struct Outcome {
  uint64_t flips = 0;
  uint64_t corrupted = 0;
  uint64_t dos = 0;
  bool attack_possible = true;
};

Outcome RunEnclave(bool integrity, DefenseKind defense, bool subarray_isolated,
                   ScenarioTelemetry* telemetry) {
  const Cycle kRun = RunBudget(1000000);
  SystemConfig config;
  config.cores = 2;
  ApplyDefensePreset(config, defense, 256);
  if (subarray_isolated) {
    config.mc.scheme = InterleaveScheme::kSubarrayIsolated;
    config.alloc = AllocPolicy::kSubarrayAware;
  }
  JobSystem system(config, telemetry);
  const DomainId attacker = system.AddDomain({.name = "attacker"});
  const DomainId enclave = system.AddDomain(
      {.name = "enclave", .enclave = true, .integrity_checked = integrity});
  const uint64_t chunk = PagesPerRowGroup(system.mc().mapper());
  VirtAddr attacker_base = 0;
  VirtAddr enclave_base = 0;
  for (int i = 0; i < 32; ++i) {
    auto a = system.kernel().AllocRegion(attacker, chunk);
    auto e = system.kernel().AllocRegion(enclave, chunk);
    if (i == 0) {
      attacker_base = *a;
      enclave_base = *e;
    }
  }
  system.kernel().FillRegion(attacker, attacker_base, 32 * chunk);
  system.kernel().FillRegion(enclave, enclave_base, 32 * chunk);
  system.InstallDefense(MakeDefense(defense, config.dram));

  Outcome outcome;
  auto plan = PlanDoubleSidedCross(system.kernel(), attacker, enclave);
  if (!plan.has_value()) {
    outcome.attack_possible = false;
    plan = PlanManySided(system.kernel(), attacker, 2);
  }
  if (plan.has_value()) {
    HammerConfig hammer;
    hammer.aggressors = plan->aggressor_vas;
    system.AssignCore(0, attacker, std::make_unique<HammerStream>(hammer));
  }
  system.RunFor(kRun);
  const SecurityOutcome security = Assess(system);
  outcome.flips = security.cross_domain_flips;
  // Count only the enclave's own lines (Assess already drained caches).
  const VerifyResult enclave_verify =
      system.kernel().VerifyRegion(enclave, enclave_base, 32 * chunk);
  outcome.corrupted = enclave_verify.corrupted_lines;
  outcome.dos = enclave_verify.dos_lockups;
  system.Report(kRun);
  return outcome;
}

void Main(unsigned threads) {
  Table table("E11. Enclave memory under attack (§4.4): corruption vs. denial-of-service");
  table.SetHeader({"enclave integrity check", "defense", "cross-domain flips",
                   "corrupted enclave lines", "DoS lockups", "outcome"});
  struct Case {
    bool integrity;
    std::string label;
    DefenseKind defense;
    bool subarray;
  };
  const std::vector<Case> cases = {
      {false, "none", DefenseKind::kNone, false},
      {true, "none", DefenseKind::kNone, false},
      {false, "sw-refresh", DefenseKind::kSwRefresh, false},
      {true, "sw-refresh", DefenseKind::kSwRefresh, false},
      {false, "subarray-isolation", DefenseKind::kNone, true},
      {true, "subarray-isolation", DefenseKind::kNone, true},
  };
  const std::vector<Outcome> outcomes = RunScenarios(
      "e11", cases.size(),
      [&](size_t i, ScenarioTelemetry* t) {
        return RunEnclave(cases[i].integrity, cases[i].defense, cases[i].subarray, t);
      },
      threads);
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Outcome& outcome = outcomes[i];
    std::string verdict;
    if (!outcome.attack_possible) {
      verdict = "no adjacency (isolated)";
    } else if (outcome.dos > 0) {
      verdict = "DoS (lockup)";
    } else if (outcome.corrupted > 0) {
      verdict = "silent corruption";
    } else {
      verdict = "safe";
    }
    table.AddRow({Table::YesNo(c.integrity), c.label, Table::Num(outcome.flips),
                  Table::Num(outcome.corrupted), Table::Num(outcome.dos), verdict});
  }
  table.Print();
  std::puts("\nReading: integrity checking downgrades arbitrary corruption to DoS\n"
            "(§4.4); actual prevention still requires one of the defense classes,\n"
            "and isolation removes even the DoS vector.");
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  ht::Main(ht::BenchMain(argc, argv));
  return 0;
}
