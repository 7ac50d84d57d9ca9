#include "check/frfcfs_ref.h"

#include <algorithm>
#include <sstream>

namespace ht {

ScheduleDecision RefFrFcfs::Decide(const MemoryController& mc, uint32_t channel, Cycle now) {
  mc.QueueInAgeOrder(channel, &queue_);
  const DramDevice& device = mc.device(channel);
  const DramConfig& dram = mc.dram_config();
  const McMitigation* mitigation = mc.mitigation();
  const std::vector<Cycle>& ref_due = mc.RefreshDue(channel);
  const uint32_t banks = dram.org.banks;
  const auto draining = [&](const DdrCoord& coord) {
    const size_t slot =
        dram.retention.per_bank_refresh ? coord.rank * banks + coord.bank : coord.rank;
    return now >= ref_due[slot];
  };
  ScheduleDecision decision;
  const auto issue = [&](const DdrCommand& cmd, uint64_t seq) {
    decision.issued = true;
    decision.command = cmd.type;
    decision.seq = seq;
    return decision;
  };
  // Earliest cycle a timing-blocked candidate becomes legal or a
  // throttled head is released.
  Cycle block = kNeverCycle;

  // Pass 1 (FR): oldest row hit whose RD/WR is legal now.
  for (const MemoryController::QueuedRequest& queued : queue_) {
    const DdrCoord& coord = queued.coord;
    const std::optional<uint32_t> open_row = device.OpenRow(coord.rank, coord.bank);
    if (draining(coord) || open_row != coord.row) {
      continue;
    }
    const bool ap = !mc.config().open_page;
    const DdrCommand cmd = queued.op == MemOp::kRead
                               ? DdrCommand::Rd(coord.rank, coord.bank, coord.column, ap)
                               : DdrCommand::Wr(coord.rank, coord.bank, coord.column, ap);
    if (device.Check(cmd, now) == TimingVerdict::kOk) {
      return issue(cmd, queued.seq);
    }
    block = std::min(block, device.EarliestCycle(cmd));
  }

  // Pass 2 (FCFS): oldest request to a closed bank — ACT (unless
  // throttled). The oldest request of each bank claims it, so a younger
  // request cannot steal the bank.
  uint64_t claimed_banks = 0;
  for (const MemoryController::QueuedRequest& queued : queue_) {
    const DdrCoord& coord = queued.coord;
    const uint64_t bank_bit = 1ull << (coord.rank * banks + coord.bank);
    if ((claimed_banks & bank_bit) != 0) {
      continue;
    }
    claimed_banks |= bank_bit;
    if (draining(coord) || device.OpenRow(coord.rank, coord.bank).has_value()) {
      continue;
    }
    if (mitigation != nullptr) {
      const Cycle allowed = mitigation->ActAllowedAt(coord.rank, coord.bank, coord.row, now);
      if (allowed > now) {
        ++decision.throttle_stalls;
        block = std::min(block, allowed);
        continue;
      }
    }
    const DdrCommand act = DdrCommand::Act(coord.rank, coord.bank, coord.row);
    if (device.Check(act, now) == TimingVerdict::kOk) {
      return issue(act, queued.seq);
    }
    block = std::min(block, device.EarliestCycle(act));
  }

  // Pass 3: oldest conflicting request — PRE its bank unless an older
  // request still wants the open row.
  for (size_t i = 0; i < queue_.size(); ++i) {
    const DdrCoord& coord = queue_[i].coord;
    const std::optional<uint32_t> open_row = device.OpenRow(coord.rank, coord.bank);
    if (!open_row.has_value() || *open_row == coord.row) {
      continue;
    }
    bool older_wants_open_row = false;
    for (size_t j = 0; j < i && !broken_; ++j) {
      const DdrCoord& other = queue_[j].coord;
      if (other.rank == coord.rank && other.bank == coord.bank && other.row == *open_row) {
        older_wants_open_row = true;
        break;
      }
    }
    if (older_wants_open_row) {
      continue;
    }
    const DdrCommand pre = DdrCommand::Pre(coord.rank, coord.bank);
    if (device.Check(pre, now) == TimingVerdict::kOk) {
      return issue(pre, queue_[i].seq);
    }
    block = std::min(block, device.EarliestCycle(pre));
  }
  // While a head is throttled, the next slot to start draining also ends
  // the retry: it changes which heads count as throttled.
  if (decision.throttle_stalls != 0) {
    for (const Cycle due : ref_due) {
      if (due > now) {
        block = std::min(block, due);
      }
    }
  }
  decision.retry = std::max(block, now + 1);
  return decision;
}

std::string ToString(const ScheduleDecision& decision) {
  std::ostringstream out;
  if (decision.issued) {
    out << ToString(decision.command) << " seq=" << decision.seq;
  } else {
    out << (decision.memoized ? "memoized, retry " : "no issue, retry ") << decision.retry;
  }
  out << " (" << decision.throttle_stalls << " throttle stalls)";
  return out.str();
}

SchedulerOracle::SchedulerOracle(const MemoryController& mc, uint64_t break_after,
                                 size_t max_divergences)
    : mc_(mc), break_after_(break_after), max_divergences_(max_divergences) {}

void SchedulerOracle::OnSchedule(uint32_t channel, Cycle now, const ScheduleDecision& decision) {
  ++decisions_checked_;
  if (break_after_ != 0 && decisions_checked_ > break_after_) {
    reference_.set_broken(true);
  }
  const ScheduleDecision expected = reference_.Decide(mc_, channel, now);
  bool agree = false;
  if (decision.memoized) {
    // The memo may only answer when a scan would issue nothing and would
    // count the same throttled heads, and may only ask to be woken no
    // later than a scan would.
    agree = !expected.issued && decision.throttle_stalls == expected.throttle_stalls &&
            decision.retry <= expected.retry;
  } else if (decision.issued) {
    agree = expected.issued && decision.command == expected.command &&
            decision.seq == expected.seq && decision.throttle_stalls == expected.throttle_stalls;
  } else {
    agree = !expected.issued && decision.retry == expected.retry &&
            decision.throttle_stalls == expected.throttle_stalls;
  }
  if (agree) {
    return;
  }
  ++total_divergences_;
  if (divergences_.size() < max_divergences_) {
    std::ostringstream what;
    what << "[decision #" << decisions_checked_ << " @ cycle " << now << "] channel " << channel
         << ": scheduler " << ToString(decision) << ", reference " << ToString(expected);
    divergences_.push_back(what.str());
  }
}

std::string SchedulerOracle::Report() const {
  std::ostringstream out;
  out << "scheduler: " << decisions_checked_ << " decisions checked, " << total_divergences_
      << " divergences";
  for (const std::string& divergence : divergences_) {
    out << "\n  " << divergence;
  }
  if (total_divergences_ > divergences_.size()) {
    out << "\n  ... " << (total_divergences_ - divergences_.size()) << " more";
  }
  return out.str();
}

}  // namespace ht
