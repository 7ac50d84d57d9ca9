#include "mc/controller.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/frfcfs_ref.h"

namespace ht {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() { Rebuild(DramConfig::SimDefault(), McConfig{}); }

  void Rebuild(const DramConfig& dram, const McConfig& mc_config) {
    mc_ = std::make_unique<MemoryController>(dram, mc_config);
    responses_.clear();
    mc_->set_response_handler([this](const MemResponse& r) { responses_.push_back(r); });
  }

  void RunFor(Cycle cycles) {
    const Cycle end = now_ + cycles;
    for (; now_ < end; ++now_) {
      mc_->Tick(now_);
    }
  }

  MemRequest Read(PhysAddr addr, DomainId domain = 1) {
    MemRequest r;
    r.id = next_id_++;
    r.op = MemOp::kRead;
    r.addr = addr;
    r.domain = domain;
    return r;
  }

  MemRequest Write(PhysAddr addr, uint64_t value, DomainId domain = 1) {
    MemRequest r = Read(addr, domain);
    r.op = MemOp::kWrite;
    r.write_value = value;
    return r;
  }

  std::unique_ptr<MemoryController> mc_;
  std::vector<MemResponse> responses_;
  Cycle now_ = 0;
  uint64_t next_id_ = 1;
};

TEST_F(ControllerTest, WriteThenReadReturnsValue) {
  ASSERT_TRUE(mc_->Enqueue(Write(0x1000, 0xCAFE), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Read(0x1000), now_));
  RunFor(200);
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_[0].op, MemOp::kWrite);
  EXPECT_EQ(responses_[1].op, MemOp::kRead);
  EXPECT_EQ(responses_[1].read_value, 0xCAFEu);
  EXPECT_GT(responses_[1].Latency(), 0u);
}

TEST_F(ControllerTest, ColdAccessesAreRowMisses) {
  // Two reads to different banks: both are pure row misses.
  ASSERT_TRUE(mc_->Enqueue(Read(0x0), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Read(64), now_));
  RunFor(200);
  EXPECT_EQ(mc_->stats().Get("mc.row_misses"), 2u);
  EXPECT_EQ(mc_->stats().Get("mc.row_hits"), 0u);
  EXPECT_EQ(responses_.size(), 2u);
}

TEST_F(ControllerTest, SameRowSecondAccessIsRowHit) {
  const AddressMapper& mapper = mc_->mapper();
  const DdrCoord base = mapper.Map(0);
  DdrCoord second = base;
  second.column = base.column + 1;  // Same bank, same row, next column.
  const PhysAddr addr2 = mapper.AddrOf(second);

  ASSERT_TRUE(mc_->Enqueue(Read(0), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Read(addr2), now_));
  RunFor(200);
  EXPECT_EQ(mc_->stats().Get("mc.row_hits"), 1u);
  EXPECT_EQ(mc_->stats().Get("mc.row_misses"), 1u);
  // The hit completes faster than the miss.
  EXPECT_LT(responses_[1].Latency(), responses_[0].Latency());
}

TEST_F(ControllerTest, ConflictingRowsForcePrecharge) {
  const AddressMapper& mapper = mc_->mapper();
  const DdrCoord base = mapper.Map(0);
  DdrCoord other = base;
  other.row = base.row + 1;  // Same bank, different row.
  ASSERT_TRUE(mc_->Enqueue(Read(0), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Read(mapper.AddrOf(other)), now_));
  RunFor(300);
  EXPECT_EQ(mc_->stats().Get("mc.row_conflicts"), 1u);
  EXPECT_EQ(responses_.size(), 2u);
}

TEST_F(ControllerTest, QueueBackpressure) {
  McConfig mc_config;
  mc_config.queue_capacity = 4;
  Rebuild(DramConfig::SimDefault(), mc_config);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (mc_->Enqueue(Read(static_cast<PhysAddr>(i) * 4096), now_)) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(mc_->stats().Get("mc.enqueue_rejected"), 6u);
}

TEST_F(ControllerTest, PeriodicRefreshIssued) {
  const Cycle period = mc_->dram_config().RefPeriod();
  RunFor(period * 4 + 100);
  EXPECT_GE(mc_->stats().Get("mc.refs_issued"), 3u);
  EXPECT_EQ(mc_->device(0).CountRetentionViolations(now_), 0u);
}

TEST_F(ControllerTest, RefreshSurvivesHeavyTraffic) {
  const Cycle period = mc_->dram_config().RefPeriod();
  Rng rng(3);
  for (Cycle end = now_ + period * 3; now_ < end;) {
    mc_->Enqueue(Read(rng.NextBelow(1 << 20) * 64), now_);
    RunFor(20);
  }
  EXPECT_GE(mc_->stats().Get("mc.refs_issued"), 2u);
}

TEST_F(ControllerTest, RefreshInstructionRepairsRow) {
  // Hammer a row's neighbour close to MAC via raw requests, then refresh
  // the victim with the §4.3 primitive and verify the accumulator reset.
  const AddressMapper& mapper = mc_->mapper();
  DdrCoord aggressor = mapper.Map(0);
  aggressor.row = 10;
  aggressor.column = 0;
  DdrCoord conflict = aggressor;
  conflict.row = 12;
  const PhysAddr a_addr = mapper.AddrOf(aggressor);
  const PhysAddr c_addr = mapper.AddrOf(conflict);
  // Alternate two rows in one bank: every access is a row miss -> ACT.
  for (int i = 0; i < 50; ++i) {
    mc_->Enqueue(Read(a_addr), now_);
    RunFor(120);
    mc_->Enqueue(Read(c_addr), now_);
    RunFor(120);
  }
  DdrCoord victim = aggressor;
  victim.row = 11;
  EXPECT_GT(mc_->device(0).DisturbanceLevel(victim.rank, victim.bank, victim.row), 0.0);

  bool done = false;
  ASSERT_TRUE(mc_->RefreshRow(mapper.AddrOf(victim), true, now_,
                              [&done](const RefreshDone&) { done = true; }));
  RunFor(500);
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(mc_->device(0).DisturbanceLevel(victim.rank, victim.bank, victim.row), 0.0);
  EXPECT_EQ(mc_->stats().Get("mc.refresh_instr"), 1u);
  EXPECT_EQ(mc_->stats().Get("mc.refresh_instr_acts"), 1u);
}

// A refresh instruction aimed at a rank that drains for an overdue REF
// waits for the REF instead of opening a row the REF would have to close.
TEST_F(ControllerTest, DrainingRankHoldsRefreshInstructionUntilRef) {
  const Cycle due = mc_->dram_config().RefPeriod();
  // Its tRAS keeps PREA, and so the REF, illegal at `due`.
  ASSERT_EQ(mc_->device(0).Issue(DdrCommand::Act(0, 0, 5), due - 20), TimingVerdict::kOk);
  now_ = due;
  ASSERT_TRUE(mc_->RefreshRow(mc_->mapper().AddrOf(DdrCoord{0, 0, 1, 7, 0}), true, now_));
  ASSERT_EQ(mc_->device(0).Check(DdrCommand::Act(0, 1, 7), now_), TimingVerdict::kOk);
  while (mc_->stats().Get("mc.refs_issued") == 0 && now_ < due + 2000) {
    RunFor(1);
    ASSERT_EQ(mc_->stats().Get("mc.refresh_instr_acts"), 0u) << "ACT before REF at " << now_;
  }
  ASSERT_EQ(mc_->stats().Get("mc.refs_issued"), 1u);
  RunFor(500);
  EXPECT_EQ(mc_->stats().Get("mc.refresh_instr_acts"), 1u);
  EXPECT_TRUE(mc_->Idle());
}

TEST_F(ControllerTest, RefreshNeighborsCommandRepairsVictims) {
  const AddressMapper& mapper = mc_->mapper();
  DdrCoord aggressor = mapper.Map(0);
  aggressor.row = 20;
  aggressor.column = 0;
  DdrCoord conflict = aggressor;
  conflict.row = 24;
  for (int i = 0; i < 50; ++i) {
    mc_->Enqueue(Read(mapper.AddrOf(aggressor)), now_);
    RunFor(120);
    mc_->Enqueue(Read(mapper.AddrOf(conflict)), now_);
    RunFor(120);
  }
  DdrCoord victim = aggressor;
  victim.row = 21;
  ASSERT_GT(mc_->device(0).DisturbanceLevel(victim.rank, victim.bank, victim.row), 0.0);
  ASSERT_TRUE(mc_->RefreshNeighbors(mapper.AddrOf(aggressor), 2, now_));
  RunFor(1000);
  EXPECT_DOUBLE_EQ(mc_->device(0).DisturbanceLevel(victim.rank, victim.bank, victim.row), 0.0);
  EXPECT_GT(mc_->device(0).stats().Get("dram.ref_neighbors"), 0u);
}

TEST_F(ControllerTest, DomainGroupViolationDetected) {
  McConfig mc_config;
  mc_config.scheme = InterleaveScheme::kSubarrayIsolated;
  mc_config.enforce_domain_groups = true;
  Rebuild(DramConfig::SimDefault(), mc_config);
  mc_->SetDomainGroup(1, 0);  // Domain 1 belongs to subarray group 0.

  // An address in group 0: fine.
  const uint64_t band_lines = mc_->mapper().LinesPerSubarrayBand();
  ASSERT_TRUE(mc_->Enqueue(Read(0, 1), now_));
  EXPECT_EQ(mc_->stats().Get("mc.domain_group_violations"), 0u);
  // An address in group 1: violation.
  ASSERT_TRUE(mc_->Enqueue(Read(band_lines * kLineBytes, 1), now_));
  EXPECT_EQ(mc_->stats().Get("mc.domain_group_violations"), 1u);
}

TEST_F(ControllerTest, ActCounterFiresUnderConflictTraffic) {
  McConfig mc_config;
  mc_config.act_counter.enabled = true;
  mc_config.act_counter.threshold = 16;
  Rebuild(DramConfig::SimDefault(), mc_config);
  int interrupts = 0;
  PhysAddr last_addr = 0;
  mc_->SetActInterruptHandler([&](const ActInterrupt& irq) {
    ++interrupts;
    last_addr = irq.trigger_addr;
  });
  const AddressMapper& mapper = mc_->mapper();
  DdrCoord a = mapper.Map(0);
  a.row = 30;
  DdrCoord b = a;
  b.row = 40;
  for (int i = 0; i < 40; ++i) {
    mc_->Enqueue(Read(mapper.AddrOf(a)), now_);
    RunFor(120);
    mc_->Enqueue(Read(mapper.AddrOf(b)), now_);
    RunFor(120);
  }
  EXPECT_GT(interrupts, 0);
  // The latched address names one of the hammered lines.
  EXPECT_TRUE(last_addr == mapper.AddrOf(a) || last_addr == mapper.AddrOf(b));
}

TEST_F(ControllerTest, IdleAndQueuedReporting) {
  EXPECT_TRUE(mc_->Idle());
  mc_->Enqueue(Read(0x1000), now_);
  EXPECT_FALSE(mc_->Idle());
  EXPECT_EQ(mc_->QueuedRequests(), 1u);
  RunFor(300);
  EXPECT_TRUE(mc_->Idle());
}

TEST_F(ControllerTest, MitigationReceivesActivations) {
  class Recorder : public McMitigation {
   public:
    std::string name() const override { return "recorder"; }
    void OnActivate(uint32_t, uint32_t, uint32_t row, Cycle,
                    std::vector<NeighborRefreshRequest>& out) override {
      rows.push_back(row);
      (void)out;
    }
    uint64_t SramBits() const override { return 0; }
    std::vector<uint32_t> rows;
  };
  auto recorder = std::make_unique<Recorder>();
  Recorder* raw = recorder.get();
  mc_->InstallMitigation(std::move(recorder));
  mc_->Enqueue(Read(0x2000), now_);
  RunFor(300);
  ASSERT_EQ(raw->rows.size(), 1u);
  EXPECT_EQ(raw->rows[0], mc_->mapper().Map(0x2000).row);
}

TEST_F(ControllerTest, MitigationRefreshRequestsExecuted) {
  // A mitigation that asks for a neighbour refresh on every ACT: the MC
  // must turn it into internal PRE/ACT ops (visible as extra device ACTs).
  class AlwaysRefresh : public McMitigation {
   public:
    std::string name() const override { return "always"; }
    void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle,
                    std::vector<NeighborRefreshRequest>& out) override {
      out.push_back({rank, bank, row});
    }
    uint64_t SramBits() const override { return 0; }
  };
  mc_->InstallMitigation(std::make_unique<AlwaysRefresh>());
  mc_->Enqueue(Read(0x3000), now_);
  RunFor(2000);
  EXPECT_GT(mc_->stats().Get("mc.mitigation_refreshes"), 0u);
  // 1 request ACT + up to 2*blast neighbour refresh ACTs.
  EXPECT_GT(mc_->device(0).stats().Get("dram.acts"), 1u);
}

// --- FR-FCFS rules on hand-built queues ---------------------------------------
//
// Each case opens rows straight on the device, enqueues a few requests and
// ticks the controller cycle by cycle. Every scheduling decision is also
// checked against the naive RefFrFcfs (check/frfcfs_ref.h).

// Records each decision after checking it against the reference.
class CheckedDecisions : public McCheckObserver {
 public:
  explicit CheckedDecisions(const MemoryController& mc) : oracle_(mc, 0, 16) {}
  void OnSchedule(uint32_t channel, Cycle now, const ScheduleDecision& decision) override {
    oracle_.OnSchedule(channel, now, decision);
    log.push_back(decision);
  }
  std::vector<ScheduleDecision> Issued() const {
    std::vector<ScheduleDecision> out;
    for (const ScheduleDecision& decision : log) {
      if (decision.issued) {
        out.push_back(decision);
      }
    }
    return out;
  }
  const SchedulerOracle& oracle() const { return oracle_; }

  std::vector<ScheduleDecision> log;

 private:
  SchedulerOracle oracle_;
};

// Throttles every ACT of `row` until `until` (a BlockHammer stand-in).
class RowThrottle : public McMitigation {
 public:
  RowThrottle(uint32_t row, Cycle until) : row_(row), until_(until) {}
  std::string name() const override { return "row-throttle"; }
  void OnActivate(uint32_t, uint32_t, uint32_t, Cycle,
                  std::vector<NeighborRefreshRequest>&) override {}
  Cycle ActAllowedAt(uint32_t, uint32_t, uint32_t row, Cycle now) const override {
    return row == row_ && now < until_ ? until_ : now;
  }
  uint64_t SramBits() const override { return 0; }

 private:
  uint32_t row_;
  Cycle until_;
};

class FrFcfsRuleTest : public ControllerTest {
 protected:
  FrFcfsRuleTest() { Attach(); }
  ~FrFcfsRuleTest() override {
    EXPECT_GT(checker_->oracle().decisions_checked(), 0u);
    EXPECT_TRUE(checker_->oracle().ok()) << checker_->oracle().Report();
    mc_->set_check_observer(nullptr);
  }

  void Rebuild(const DramConfig& dram, const McConfig& mc_config) {
    ControllerTest::Rebuild(dram, mc_config);
    Attach();
  }
  void Attach() {
    checker_ = std::make_unique<CheckedDecisions>(*mc_);
    mc_->set_check_observer(checker_.get());
  }

  PhysAddr At(uint32_t bank, uint32_t row, uint32_t column = 0) const {
    return mc_->mapper().AddrOf(DdrCoord{0, 0, bank, row, column});
  }
  // Issues `cmd` straight on the device (rank 0), bypassing the queue.
  void Direct(const DdrCommand& cmd, Cycle at) {
    ASSERT_EQ(mc_->device(0).Issue(cmd, at), TimingVerdict::kOk) << cmd.ToDebugString();
  }
  // Ticks one cycle; returns the decision that cycle made, if any.
  std::optional<ScheduleDecision> TickOnce() {
    const size_t before = checker_->log.size();
    mc_->Tick(now_++);
    if (checker_->log.size() == before) {
      return std::nullopt;
    }
    return checker_->log.back();
  }
  bool Legal(const DdrCommand& cmd) const {
    return mc_->device(0).Check(cmd, now_) == TimingVerdict::kOk;
  }

  std::unique_ptr<CheckedDecisions> checker_;
};

TEST_F(FrFcfsRuleTest, RowHitBeatsOlderMiss) {
  Direct(DdrCommand::Act(0, 0, 5), 0);
  now_ = 100;
  ASSERT_TRUE(mc_->Enqueue(Read(At(1, 9)), now_));     // seq 0: miss, bank 1 closed.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 9)), now_));     // seq 1: conflict in bank 0.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 5, 3)), now_));  // seq 2: hit.
  ASSERT_TRUE(Legal(DdrCommand::Act(0, 1, 9)));
  const std::optional<ScheduleDecision> first = TickOnce();
  ASSERT_TRUE(first.has_value() && first->issued);
  EXPECT_EQ(first->command, DdrCommandType::kRead);
  EXPECT_EQ(first->seq, 2u);
  EXPECT_EQ(mc_->stats().Get("mc.row_hits"), 1u);
  RunFor(400);
  EXPECT_EQ(responses_.size(), 3u);
}

TEST_F(FrFcfsRuleTest, OnlyOldestRequestMayActivateItsBank) {
  for (const bool event_driven : {true, false}) {
    SCOPED_TRACE(event_driven ? "event-driven" : "per-cycle");
    McConfig mc_config;
    mc_config.event_driven = event_driven;
    Rebuild(DramConfig::SimDefault(), mc_config);
    mc_->InstallMitigation(std::make_unique<RowThrottle>(7, 300));
    now_ = 100;
    ASSERT_TRUE(mc_->Enqueue(Read(At(0, 7)), now_));  // seq 0: throttled until 300.
    ASSERT_TRUE(mc_->Enqueue(Read(At(0, 8)), now_));  // seq 1: same bank, unthrottled.
    // Bank 0 is claimed by seq 0, so nothing may issue; the retry is the
    // throttle's release cycle.
    const std::optional<ScheduleDecision> stall = TickOnce();
    ASSERT_TRUE(stall.has_value());
    EXPECT_FALSE(stall->issued);
    EXPECT_EQ(stall->throttle_stalls, 1u);
    EXPECT_EQ(stall->retry, 300u);
    while (now_ < 300) {
      // The event-driven channel sleeps; the per-cycle one asks the memo,
      // which reports the throttled head it stands in for.
      const std::optional<ScheduleDecision> decision = TickOnce();
      if (event_driven) {
        ASSERT_FALSE(decision.has_value()) << "cycle " << now_ - 1;
      } else {
        ASSERT_TRUE(decision.has_value() && decision->memoized) << "cycle " << now_ - 1;
        EXPECT_EQ(decision->throttle_stalls, 1u);
        EXPECT_EQ(decision->retry, 300u);
      }
    }
    EXPECT_FALSE(mc_->device(0).OpenRow(0, 0).has_value());
    // Still one stall per cycle, 100 to 299.
    mc_->SyncThrottleStalls(now_);
    EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), 200u);
    const std::optional<ScheduleDecision> act = TickOnce();
    ASSERT_TRUE(act.has_value() && act->issued);
    EXPECT_EQ(act->command, DdrCommandType::kActivate);
    EXPECT_EQ(act->seq, 0u);
    EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), 200u);
    RunFor(400);
    ASSERT_EQ(responses_.size(), 2u);
    EXPECT_EQ(responses_[0].addr, At(0, 7));
    EXPECT_TRUE(checker_->oracle().ok()) << checker_->oracle().Report();  // Rebuild replaces it.
  }
}

TEST_F(FrFcfsRuleTest, NoPrechargeWhileOlderRequestWantsOpenRow) {
  Direct(DdrCommand::Act(0, 0, 5), 0);
  Direct(DdrCommand::Act(0, 1, 6), 10);
  now_ = 200;
  ASSERT_TRUE(mc_->Enqueue(Read(At(1, 6, 1)), now_));  // seq 0: hit, bank 1.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 5, 2)), now_));  // seq 1: hit, bank 0.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 9)), now_));     // seq 2: conflict, bank 0.
  RunFor(300);
  const std::vector<ScheduleDecision> issued = checker_->Issued();
  ASSERT_GE(issued.size(), 5u);
  // RD for bank 1 at cycle 200 holds bank 0's RD back by tCCD. Bank 0's
  // PRE is legal meanwhile, but seq 1 still wants row 5: no PRE until it
  // is served.
  EXPECT_EQ(issued[0].command, DdrCommandType::kRead);
  EXPECT_EQ(issued[0].seq, 0u);
  EXPECT_EQ(issued[1].command, DdrCommandType::kRead);
  EXPECT_EQ(issued[1].seq, 1u);
  EXPECT_EQ(issued[2].command, DdrCommandType::kPrecharge);
  EXPECT_EQ(issued[2].seq, 2u);
  EXPECT_EQ(issued[3].command, DdrCommandType::kActivate);
  EXPECT_EQ(issued[4].command, DdrCommandType::kRead);
  EXPECT_EQ(mc_->stats().Get("mc.row_conflicts"), 1u);
}

TEST_F(FrFcfsRuleTest, DrainingRankBlocksHitsAndActsButMayPrecharge) {
  const Cycle due = mc_->dram_config().RefPeriod();
  Direct(DdrCommand::Act(0, 0, 5), due - 100);
  Direct(DdrCommand::Act(0, 1, 6), due - 20);  // Its tRAS keeps PREA illegal at `due`.
  now_ = due;
  ASSERT_TRUE(mc_->Enqueue(Read(At(1, 6, 1)), now_));  // seq 0: hit.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 9)), now_));     // seq 1: conflict.
  ASSERT_TRUE(mc_->Enqueue(Read(At(2, 3)), now_));     // seq 2: closed bank.
  ASSERT_TRUE(Legal(DdrCommand::Rd(0, 1, 1, false)));
  ASSERT_TRUE(Legal(DdrCommand::Act(0, 2, 3)));
  ASSERT_TRUE(Legal(DdrCommand::Pre(0, 0)));
  ASSERT_FALSE(Legal(DdrCommand::PreAll(0)));
  const std::optional<ScheduleDecision> decision = TickOnce();
  ASSERT_TRUE(decision.has_value() && decision->issued);
  EXPECT_EQ(decision->command, DdrCommandType::kPrecharge);
  EXPECT_EQ(decision->seq, 1u);
  RunFor(2000);
  EXPECT_EQ(mc_->stats().Get("mc.refs_issued"), 1u);
  EXPECT_EQ(responses_.size(), 3u);
}

TEST_F(FrFcfsRuleTest, DrainingBankBlocksItsHitsOnly) {
  DramConfig dram = DramConfig::SimDefault();
  dram.retention.per_bank_refresh = true;
  Rebuild(dram, McConfig{});
  const Cycle due = mc_->RefreshDue(0)[0];  // Bank 0 drains first.
  Direct(DdrCommand::Act(0, 0, 5), due - 20);  // Its tRAS keeps PRE illegal at `due`.
  now_ = due;
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 5, 1)), now_));  // seq 0: hit, draining bank.
  ASSERT_TRUE(mc_->Enqueue(Read(At(1, 4)), now_));     // seq 1: closed bank 1.
  ASSERT_TRUE(Legal(DdrCommand::Rd(0, 0, 1, false)));
  const std::optional<ScheduleDecision> decision = TickOnce();
  ASSERT_TRUE(decision.has_value() && decision->issued);
  EXPECT_EQ(decision->command, DdrCommandType::kActivate);
  EXPECT_EQ(decision->seq, 1u);
  RunFor(2000);
  EXPECT_GE(mc_->stats().Get("mc.refs_sb_issued"), 1u);
  EXPECT_EQ(responses_.size(), 2u);
}

TEST_F(FrFcfsRuleTest, ThrottledHeadCountedOncePerScanYoungerHeadStillActs) {
  mc_->InstallMitigation(std::make_unique<RowThrottle>(7, kNeverCycle));
  now_ = 100;
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 7)), now_));  // seq 0: throttled head.
  ASSERT_TRUE(mc_->Enqueue(Read(At(1, 8)), now_));  // seq 1: younger head.
  const std::optional<ScheduleDecision> act = TickOnce();
  ASSERT_TRUE(act.has_value() && act->issued);
  EXPECT_EQ(act->command, DdrCommandType::kActivate);
  EXPECT_EQ(act->seq, 1u);
  EXPECT_EQ(act->throttle_stalls, 1u);
  EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), 1u);
  // Bank 1's RD waits for tRCD and nothing else can issue first, so the
  // next scan is the one that issues it. The throttled head is still
  // counted on every cycle before; the RD's scan wins in pass 1 and never
  // asks the throttle.
  const Cycle rd_at = mc_->device(0).EarliestCycle(DdrCommand::Rd(0, 1, 0, false));
  ASSERT_GT(rd_at, now_);
  std::optional<ScheduleDecision> rd;
  while (!rd.has_value() && now_ <= rd_at) {
    rd = TickOnce();
  }
  ASSERT_TRUE(rd.has_value() && rd->issued);
  EXPECT_EQ(now_ - 1, rd_at);
  EXPECT_EQ(rd->command, DdrCommandType::kRead);
  EXPECT_EQ(rd->seq, 1u);
  EXPECT_EQ(rd->throttle_stalls, 0u);
  EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), rd_at - 100);
}

TEST_F(FrFcfsRuleTest, ThrottledHeadStopsCountingWhileItsRankDrains) {
  mc_->InstallMitigation(std::make_unique<RowThrottle>(7, kNeverCycle));
  const Cycle due = mc_->RefreshDue(0)[0];
  now_ = due - 20;
  Direct(DdrCommand::Act(0, 1, 6), now_);  // Its tRAS keeps PREA illegal at `due`.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 7)), now_));  // Throttled head of closed bank 0.
  const std::optional<ScheduleDecision> stall = TickOnce();
  ASSERT_TRUE(stall.has_value());
  EXPECT_FALSE(stall->issued);
  EXPECT_EQ(stall->throttle_stalls, 1u);
  // The throttle never releases, but the rank starts draining at `due`,
  // which drops the head from pass 2: the memo must end there.
  EXPECT_EQ(stall->retry, due);
  RunFor(19);
  ASSERT_EQ(now_, due);
  ASSERT_FALSE(Legal(DdrCommand::PreAll(0)));
  while (mc_->stats().Get("mc.refs_issued") == 0) {
    ASSERT_LT(now_, due + 200);
    const std::optional<ScheduleDecision> decision = TickOnce();
    if (decision.has_value()) {
      EXPECT_EQ(decision->throttle_stalls, 0u) << "cycle " << now_ - 1;
    }
  }
  // Counted on cycles due-20 .. due-1 only.
  mc_->SyncThrottleStalls(now_);
  EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), 20u);
  // After the REF the rank serves again and the head counts again.
  RunFor(10);
  mc_->SyncThrottleStalls(now_);
  EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), 30u);
}

TEST_F(FrFcfsRuleTest, OpenRowEnqueueIntoMemoizedChannelIssuesAfterOneScan) {
  mc_->InstallMitigation(std::make_unique<RowThrottle>(7, kNeverCycle));
  now_ = 100;
  Direct(DdrCommand::Act(0, 1, 5), 90);
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 7)), now_));  // seq 0: throttled head.
  const std::optional<ScheduleDecision> stall = TickOnce();
  ASSERT_TRUE(stall.has_value());
  EXPECT_FALSE(stall->issued);
  EXPECT_EQ(stall->retry, mc_->RefreshDue(0)[0]);  // Only the next REF due ends it.
  // seq 1 hits bank 1's open row, but its RD waits for tRCD: the enqueue
  // lowers the memo to exactly that cycle.
  ASSERT_TRUE(mc_->Enqueue(Read(At(1, 5, 2)), now_));
  const Cycle rd_at = mc_->device(0).EarliestCycle(DdrCommand::Rd(0, 1, 2, false));
  ASSERT_GT(rd_at, now_);
  const size_t decisions = checker_->log.size();
  RunFor(rd_at - now_ + 1);
  ASSERT_EQ(checker_->log.size(), decisions + 1);
  const ScheduleDecision& rd = checker_->log.back();
  ASSERT_TRUE(rd.issued);
  EXPECT_EQ(rd.command, DdrCommandType::kRead);
  EXPECT_EQ(rd.seq, 1u);
  EXPECT_EQ(responses_.size(), 0u);  // Still in flight.
  EXPECT_EQ(mc_->stats().Get("mc.reads_done"), 1u);
}

TEST_F(FrFcfsRuleTest, EnqueuedClosedBankHeadIsScannedWhileMitigated) {
  mc_->InstallMitigation(std::make_unique<RowThrottle>(7, kNeverCycle));
  Direct(DdrCommand::Act(0, 1, 5), 95);
  now_ = 100;
  ASSERT_FALSE(Legal(DdrCommand::Act(0, 0, 7)));  // tRRD after bank 1's ACT.
  // A new closed-bank head may be throttled, which its ACT's timing alone
  // cannot tell: the next tick must scan and count it.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 7)), now_));
  const std::optional<ScheduleDecision> stall = TickOnce();
  ASSERT_TRUE(stall.has_value());
  EXPECT_FALSE(stall->memoized);
  EXPECT_FALSE(stall->issued);
  EXPECT_EQ(stall->throttle_stalls, 1u);
  EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), 1u);
}

TEST_F(FrFcfsRuleTest, OldestLegalHitWinsWhenReadAndWriteLegalityDiffer) {
  Direct(DdrCommand::Act(0, 0, 5), 0);
  Direct(DdrCommand::Wr(0, 0, 0, false), 100);
  now_ = 110;
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 5, 1)), now_));         // seq 0: RD waits for tWTR.
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 5, 2), 7), now_));     // seq 1: WR legal.
  ASSERT_FALSE(Legal(DdrCommand::Rd(0, 0, 1, false)));
  ASSERT_TRUE(Legal(DdrCommand::Wr(0, 0, 2, false)));
  const std::optional<ScheduleDecision> decision = TickOnce();
  ASSERT_TRUE(decision.has_value() && decision->issued);
  EXPECT_EQ(decision->command, DdrCommandType::kWrite);
  EXPECT_EQ(decision->seq, 1u);
  RunFor(200);
  EXPECT_EQ(responses_.size(), 2u);
}

TEST_F(FrFcfsRuleTest, IssuedHitResumesOnlyItsKindsMemo) {
  Direct(DdrCommand::Act(0, 0, 5), 0);
  now_ = 100;
  // Bank 0, open row 5: reads and writes to row 5 interleaved with
  // requests to row 9, which must wait for every row-5 hit.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 5, 1)), now_));      // seq 0: read hit.
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 9, 1), 1), now_));  // seq 1: conflict.
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 5, 2), 2), now_));  // seq 2: write hit.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 9, 2)), now_));      // seq 3: conflict.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 5, 3)), now_));      // seq 4: read hit.
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 5, 4), 4), now_));  // seq 5: write hit.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 5, 5)), now_));      // seq 6: read hit.
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 5, 6), 6), now_));  // seq 7: write hit.
  RunFor(600);
  std::vector<uint64_t> reads;
  std::vector<uint64_t> writes;
  for (const ScheduleDecision& decision : checker_->Issued()) {
    if (decision.command == DdrCommandType::kPrecharge) {
      break;  // Row 9's turn: every row-5 hit was served before it.
    }
    (decision.command == DdrCommandType::kRead ? reads : writes).push_back(decision.seq);
  }
  // Each kind's hits issue oldest first, so each issue hands its memo to
  // the next hit of the same kind and leaves the other kind's alone.
  EXPECT_EQ(reads, (std::vector<uint64_t>{0, 4, 6}));
  EXPECT_EQ(writes, (std::vector<uint64_t>{2, 5, 7}));
  // Six row-5 hits, and seq 3 rides seq 1's ACT of row 9.
  EXPECT_EQ(mc_->stats().Get("mc.row_hits"), 7u);
  EXPECT_EQ(responses_.size(), 8u);
}

TEST_F(FrFcfsRuleTest, LargestOrganizationUsesEveryMaskBit) {
  DramConfig dram = DramConfig::SimDefault();
  dram.org.ranks = 8;  // 8 ranks x 8 banks: slot 63 is the last mask bit.
  Rebuild(dram, McConfig{});
  const PhysAddr last = mc_->mapper().AddrOf(DdrCoord{0, 7, 7, 3, 0});
  ASSERT_TRUE(mc_->Enqueue(Read(last), now_));
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 3)), now_));
  RunFor(400);
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_[0].addr, last);
}

TEST(ControllerDeathTest, RejectsMoreThan64RankBankSlots) {
  DramConfig dram = DramConfig::SimDefault();
  dram.org.ranks = 2;
  dram.org.banks = 64;
  EXPECT_DEATH(MemoryController(dram, McConfig{}), "ranks x banks = 2 x 64");
  dram.org.ranks = 1u << 16;  // The product wraps to 0 in 32 bits.
  dram.org.banks = 1u << 16;
  EXPECT_DEATH(MemoryController(dram, McConfig{}), "ranks x banks = 65536 x 65536");
}

}  // namespace
}  // namespace ht
