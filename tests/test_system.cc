#include "sim/system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/telemetry/trace.h"
#include "cpu/core_ops.h"
#include "defense/defense.h"
#include "sim/scenario.h"
#include "sim/workloads.h"

namespace ht {
namespace {

// Fixed scripted stream; ILP hint 1 makes every second load wait for the
// first one's response.
class ScriptStream : public InstructionStream {
 public:
  explicit ScriptStream(std::vector<CoreOp> ops) : ops_(std::move(ops)) {}
  CoreOp Next() override { return cursor_ < ops_.size() ? ops_[cursor_++] : CoreOp::Halt(); }
  uint32_t IlpHint() const override { return 1; }

 private:
  std::vector<CoreOp> ops_;
  size_t cursor_ = 0;
};

// What a run shows: the clock, the ops retired and every stat.
struct RunOutcome {
  Cycle now = 0;
  uint64_t ops = 0;
  std::string stats;
  uint64_t ticks = 0;
};

// Runs `drive` on a fresh one-core, one-tenant system with idle skipping
// on (the wake calendar) and off (every component every cycle) and
// returns both outcomes, skipping first.
std::vector<RunOutcome> RunBothModes(const std::function<void(System&, DomainId)>& drive) {
  std::vector<RunOutcome> outcomes;
  for (const bool skip_idle : {true, false}) {
    SystemConfig config;
    config.cores = 1;
    config.skip_idle = skip_idle;
    System system(config);
    const std::vector<DomainId> tenants = SetupTenants(system, 1, 16);
    drive(system, tenants[0]);
    outcomes.push_back({system.now(), system.TotalOpsCompleted(),
                        system.CollectStats().ToString(), system.component_ticks()});
  }
  return outcomes;
}

void ExpectSameOutcome(const std::vector<RunOutcome>& outcomes) {
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].now, outcomes[1].now);
  EXPECT_EQ(outcomes[0].ops, outcomes[1].ops);
  EXPECT_EQ(outcomes[0].stats, outcomes[1].stats);
  EXPECT_LT(outcomes[0].ticks, outcomes[1].ticks);  // The calendar skips work.
}

VirtAddr Line(DomainId tenant, uint64_t line) {
  return AddressSpace::BaseFor(tenant) + line * kLineBytes;
}

TEST(System, BenignRunCompletesOps) {
  SystemConfig config;
  config.cores = 2;
  System system(config);
  auto tenants = SetupTenants(system, 2, 128);
  system.AssignCore(0, tenants[0],
                    MakeWorkload("stream", tenants[0], AddressSpace::BaseFor(tenants[0]),
                                 128 * kPageBytes, 5000, 1));
  system.AssignCore(1, tenants[1],
                    MakeWorkload("chase", tenants[1], AddressSpace::BaseFor(tenants[1]),
                                 128 * kPageBytes, 5000, 2));
  system.RunUntilQuiesced(10'000'000);
  EXPECT_TRUE(system.core(0).halted());
  EXPECT_TRUE(system.core(1).halted());
  EXPECT_GE(system.TotalOpsCompleted(), 10000u);
  EXPECT_GT(system.RowHitRate(), 0.0);
  EXPECT_GT(system.AvgReadLatency(), 0.0);
}

TEST(System, RunForAdvancesClock) {
  System system(SystemConfig{});
  EXPECT_EQ(system.now(), 0u);
  system.RunFor(1234);
  EXPECT_EQ(system.now(), 1234u);
}

TEST(System, DrainCachesWritesDirtyData) {
  SystemConfig config;
  config.cores = 1;
  System system(config);
  auto tenants = SetupTenants(system, 1, 16);
  // A write-heavy workload leaves dirty lines in the LLC.
  system.AssignCore(0, tenants[0],
                    std::make_unique<StreamWorkload>(tenants[0], AddressSpace::BaseFor(tenants[0]),
                                                     16 * kPageBytes, 2000, 1.0, 3));
  system.RunUntilQuiesced(5'000'000);
  system.DrainCaches();
  // After draining, DRAM holds the pattern: verification is clean.
  EXPECT_EQ(system.kernel().VerifyAll().corrupted_lines, 0u);
}

TEST(System, PagesPerRowGroupMatchesScheme) {
  SystemConfig config;
  System interleaved(config);
  config.mc.scheme = InterleaveScheme::kBankSequential;
  System sequential(config);
  const DramOrg& org = interleaved.config().dram.org;
  EXPECT_EQ(PagesPerRowGroup(interleaved.mc().mapper()),
            static_cast<uint64_t>(org.channels) * org.ranks * org.banks * org.columns /
                kLinesPerPage);
  EXPECT_EQ(PagesPerRowGroup(sequential.mc().mapper()),
            std::max<uint64_t>(1, org.columns / kLinesPerPage));
}

TEST(System, RefreshKeepsRetentionCleanDuringLoad) {
  SystemConfig config;
  config.cores = 2;
  System system(config);
  auto tenants = SetupTenants(system, 2, 128);
  for (uint32_t i = 0; i < 2; ++i) {
    system.AssignCore(i, tenants[i],
                      MakeWorkload("random", tenants[i], AddressSpace::BaseFor(tenants[i]),
                                   128 * kPageBytes, 1u << 30, 11 + i));
  }
  system.RunFor(config.dram.retention.refresh_window + 1000);
  EXPECT_EQ(system.mc().device(0).CountRetentionViolations(system.now()), 0u);
}

TEST(System, SummarizeReportsThroughput) {
  SystemConfig config;
  config.cores = 1;
  System system(config);
  auto tenants = SetupTenants(system, 1, 64);
  system.AssignCore(0, tenants[0],
                    MakeWorkload("stream", tenants[0], AddressSpace::BaseFor(tenants[0]),
                                 64 * kPageBytes, 20000, 1));
  system.RunFor(200000);
  const PerfSummary summary = Summarize(system, 200000);
  EXPECT_GT(summary.ops, 0u);
  EXPECT_GT(summary.ops_per_kcycle, 0.0);
  EXPECT_EQ(summary.cycles, 200000u);
}

TEST(System, AllocPolicyNamesCovered) {
  EXPECT_STREQ(ToString(AllocPolicy::kLinear), "linear");
  EXPECT_STREQ(ToString(AllocPolicy::kBankAware), "bank-aware");
  EXPECT_STREQ(ToString(AllocPolicy::kGuardRows), "guard-rows");
  EXPECT_STREQ(ToString(AllocPolicy::kSubarrayAware), "subarray-aware");
}

TEST(System, HwMitigationNamesCovered) {
  EXPECT_STREQ(ToString(HwMitigationKind::kNone), "none");
  EXPECT_STREQ(ToString(HwMitigationKind::kPara), "para");
  EXPECT_STREQ(ToString(HwMitigationKind::kGraphene), "graphene");
  EXPECT_STREQ(ToString(HwMitigationKind::kTwice), "twice");
  EXPECT_STREQ(ToString(HwMitigationKind::kBlockHammer), "blockhammer");
}

TEST(System, SetupTenantsFillsAndAttributesOwnership) {
  SystemConfig config;
  System system(config);
  auto tenants = SetupTenants(system, 3, 64);
  EXPECT_EQ(tenants.size(), 3u);
  const VerifyResult verify = system.kernel().VerifyAll();
  EXPECT_EQ(verify.lines_checked, 3 * 64 * kLinesPerPage);
  EXPECT_EQ(verify.corrupted_lines, 0u);
}

// The core sleeps while its refresh instruction is in flight and while it
// waits on a response; only the MC's pokes (RefreshDone, OnResponse) can
// wake it, so the calendar must re-read it then.
TEST(System, HostRefreshThenLoadsMatchTickLoop) {
  const std::vector<RunOutcome> outcomes = RunBothModes([](System& system, DomainId tenant) {
    system.AssignCore(0, tenant,
                      std::make_unique<ScriptStream>(std::vector<CoreOp>{
                          CoreOp::RefreshRow(Line(tenant, 0)), CoreOp::Load(Line(tenant, 200)),
                          CoreOp::Load(Line(tenant, 400)), CoreOp::Fence(),
                          CoreOp::Load(Line(tenant, 600))}),
                      /*is_host=*/true);
    system.RunFor(20000);
    EXPECT_TRUE(system.core(0).halted());
    EXPECT_EQ(system.core(0).stats().Get("core.refresh_instrs"), 1u);
    EXPECT_EQ(system.mc().stats().Get("mc.refresh_instr_acts"), 1u);
  });
  EXPECT_EQ(outcomes[0].ops, 5u);
  ExpectSameOutcome(outcomes);
}

// A reassigned core starts its new stream even though the core it
// replaced had halted and slept.
TEST(System, ReassignedCoreRunsNewStreamInBothModes) {
  const std::vector<RunOutcome> outcomes = RunBothModes([](System& system, DomainId tenant) {
    system.AssignCore(0, tenant,
                      std::make_unique<ScriptStream>(std::vector<CoreOp>{
                          CoreOp::Load(Line(tenant, 0)), CoreOp::Load(Line(tenant, 300))}));
    system.RunFor(5000);
    EXPECT_TRUE(system.core(0).halted());
    system.AssignCore(0, tenant,
                      std::make_unique<ScriptStream>(std::vector<CoreOp>{
                          CoreOp::Store(Line(tenant, 500), 7), CoreOp::Load(Line(tenant, 700)),
                          CoreOp::Fence()}));
    system.RunFor(5000);
    EXPECT_TRUE(system.core(0).halted());
  });
  EXPECT_EQ(outcomes[0].ops, 3u);
  ExpectSameOutcome(outcomes);
}

// Host code may enqueue straight into the MC between runs; the next run
// must serve it at once, not at the MC's wake from before the enqueue.
TEST(System, HostEnqueueBetweenRunsMatchesTickLoop) {
  const std::vector<RunOutcome> outcomes = RunBothModes([](System& system, DomainId) {
    system.RunFor(3000);
    MemRequest request;
    request.id = 1;
    request.op = MemOp::kRead;
    request.requestor = 500;  // No core: the response goes nowhere.
    ASSERT_TRUE(system.mc().Enqueue(request, system.now()));
    system.RunFor(3000);
    EXPECT_EQ(system.mc().stats().Get("mc.reads_done"), 1u);
  });
  ExpectSameOutcome(outcomes);
}

// Emits one defense trigger record on its first tick at or after `at`.
class TraceAtDefense : public Defense {
 public:
  explicit TraceAtDefense(Cycle at) : at_(at) {}
  std::string name() const override { return "trace-at"; }
  void Tick(Cycle now) override {
    if (!emitted_ && now >= at_) {
      HT_TRACE(trace_, now, TraceKind::kDefenseTrigger, 0, 0, 0, 0, 0);
      emitted_ = true;
    }
  }
  Cycle NextWake(Cycle now) const override {
    return emitted_ ? kNeverCycle : std::max(now, at_);
  }

 private:
  Cycle at_;
  bool emitted_ = false;
};

// Without a mitigation the MC's epoch-rollover records are not part of its
// NextWake. A traced run must still emit each one at the first step past
// its boundary, ahead of the records later cycles emit, even when that
// step is only the defense's and the MC itself is idle until its next REF.
TEST(System, TracedEpochRecordKeepsCycleOrder) {
  SystemConfig config;
  config.cores = 1;
  // A window that is no multiple of the REF period: the boundary falls
  // between two REFs, while the idle MC sleeps.
  config.dram.retention.refresh_window = (1u << 16) + 60;
  const Cycle boundary = config.dram.retention.refresh_window;
  ASSERT_NE(boundary % config.dram.RefPeriod(), 0u);
  TraceBuffer trace("system", 1024);
  config.telemetry.trace = &trace;
  System system(config);
  system.InstallDefense(std::make_unique<TraceAtDefense>(boundary + 1));
  system.RunFor(boundary + 2 * config.dram.RefPeriod());
  const std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_TRUE(std::any_of(events.begin(), events.end(), [&](const TraceEvent& event) {
    return event.kind == TraceKind::kEpochRollover && event.cycle == boundary;
  }));
  ASSERT_TRUE(std::any_of(events.begin(), events.end(), [](const TraceEvent& event) {
    return event.kind == TraceKind::kDefenseTrigger;
  }));
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.cycle < b.cycle;
                             }));
}

}  // namespace
}  // namespace ht
