// Self-tests for hammerbench's output checks and layer microbenches: each
// check must catch a planted fault, pass a clean run at a nonzero seed,
// and each microbench must fail when its work count comes out short.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench.h"

namespace hb {
namespace {

constexpr unsigned kWidth = 4;

// The cells of `name` at `seed` whose key starts with one of `prefixes`,
// optionally shortened to `cycles`.
Workload Subset(const std::string& name, uint64_t seed, const std::vector<std::string>& prefixes,
                ht::Cycle cycles = 0) {
  Workload workload = *MakeWorkload(name, seed);
  std::vector<Cell> kept;
  for (Cell& cell : workload.cells) {
    for (const std::string& prefix : prefixes) {
      if (cell.key.rfind(prefix, 0) == 0 || cell.family == prefix) {
        if (cycles != 0) {
          cell.spec.run_cycles = cycles;
        }
        kept.push_back(cell);
        break;
      }
    }
  }
  workload.cells = std::move(kept);
  return workload;
}

CheckOutcome RunAndCheck(const Workload& workload, const ht::OracleOptions& oracle = {},
                         const std::vector<std::vector<GoldenCell>>* golden = nullptr) {
  const Pass fast = RunPass(workload, {Mode::kFast, kWidth, {}});
  const Pass reference = RunPass(workload, {Mode::kReference, kWidth, oracle});
  const Pass traced = RunPass(workload, {Mode::kTraced, kWidth, {}});
  CheckInputs inputs;
  inputs.workload = &workload;
  inputs.fast = &fast;
  inputs.reference = &reference;
  inputs.traced = &traced;
  inputs.golden = golden;
  return CheckOutputs(inputs);
}

TEST(CheckerSelfTest, BrokenReferenceModelFailsCells) {
  const Workload workload = Subset("taxonomy", 5, {"none/double-sided", "trr-only/dma"}, 300000);
  ASSERT_EQ(workload.cells.size(), 2u);
  ht::OracleOptions broken;
  broken.break_reference_after = 1000;
  const CheckOutcome outcome = RunAndCheck(workload, broken);
  EXPECT_EQ(outcome.cells_failed, 2u);
  ASSERT_FALSE(outcome.failures.empty());
  EXPECT_NE(outcome.failures.front().find("oracle"), std::string::npos)
      << outcome.failures.front();
}

TEST(CheckerSelfTest, PerturbedGoldenValueFailsItsCell) {
  // Full-length cells at stock seed 0, where the E1 fixture applies.
  const Workload workload = Subset("taxonomy", 0, {"none/double-sided", "act-remap/dma"});
  ASSERT_EQ(workload.cells.size(), 2u);
  EXPECT_EQ(RunAndCheck(workload).cells_failed, 0u);
  std::vector<std::vector<GoldenCell>> golden = GoldenE1();
  golden[0][0].cross_domain_flips += 1;  // none vs double-sided.
  const CheckOutcome outcome = RunAndCheck(workload, {}, &golden);
  EXPECT_EQ(outcome.cells_failed, 1u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_NE(outcome.failures.front().find("golden"), std::string::npos)
      << outcome.failures.front();
}

TEST(CheckerSelfTest, NonzeroSeedPasses) {
  // Every invariant-carrying cell: both isolation rows of the taxonomy
  // and the cloud isolation family, plus a slice of the pattern grid.
  for (const Workload& workload :
       {Subset("taxonomy", 7, {"subarray-isolation/", "guard-rows/", "none/dma"}),
        Subset("cloud", 7, {"isolation", "none"}, 500000),
        Subset("pattern", 7, {""}, 200000)}) {
    ASSERT_FALSE(workload.cells.empty()) << workload.name;
    const CheckOutcome outcome = RunAndCheck(workload);
    EXPECT_EQ(outcome.cells_failed, 0u)
        << workload.name << ": " << (outcome.failures.empty() ? "" : outcome.failures.front());
  }
}

TEST(CheckerSelfTest, DifferingTimedRepeatFailsCell) {
  const Workload workload = Subset("taxonomy", 3, {"anvil/double-sided", "none/dma"}, 200000);
  const Pass first = RunPass(workload, {Mode::kFast, 1, {}});
  Pass repeat = RunPass(workload, {Mode::kFast, 4, {}});
  std::vector<std::string> diffs(workload.cells.size());
  CheckInputs inputs;
  inputs.workload = &workload;
  inputs.fast = &first;
  inputs.repeat_diffs = &diffs;
  CompareRepeat(first, repeat, 1, &diffs);
  EXPECT_EQ(CheckOutputs(inputs).cells_failed, 0u);
  repeat.cells[0].result.perf.ops -= 1;
  CompareRepeat(first, repeat, 2, &diffs);
  EXPECT_EQ(CheckOutputs(inputs).cells_failed, 1u);
}

TEST(MicrobenchSelfTest, ShortWorkCountFails) {
  std::vector<MicrobenchResult> micro = {RunMcQueueMicrobench(64, 2000),
                                         RunMcQueueMicrobench(2, 2000),
                                         RunCacheLookupMicrobench(100000)};
  for (MicrobenchResult& tenant : RunTenantMicrobenches(64, 1)) {
    micro.push_back(tenant);
  }
  for (MicrobenchResult& bench : micro) {
    EXPECT_TRUE(MicrobenchOk(bench)) << bench.name << " did " << bench.done << " of "
                                << bench.expected;
    bench.done -= 1;
    EXPECT_FALSE(MicrobenchOk(bench)) << bench.name;
  }
}

}  // namespace
}  // namespace hb
