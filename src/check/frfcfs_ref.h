// The naive FR-FCFS reference and the oracle that checks every
// scheduling decision against it.
//
// RefFrFcfs recomputes what MemoryController::TryRequests must decide
// from the controller's observable state: the channel queue as a flat
// age-ordered vector, the device's open rows and timing verdicts, the
// refresh due cycles and the mitigation's throttle. It is the scheduler's
// three passes as they were before the per-bank index: linear scans over
// that vector, with no bank lists and no failed-scan memo:
//
//  1. FR: the oldest request whose row is open in a non-draining bank and
//     whose RD/WR is legal now;
//  2. FCFS: the oldest request that is the first (oldest) in its bank,
//     whose bank is closed and not draining, that the mitigation does not
//     throttle and whose ACT is legal now;
//  3. the oldest request that misses its bank's open row, with no older
//     request of that bank wanting the open row, whose PRE is legal now.
//
// With nothing legal, the retry is the earliest cycle any timing-blocked
// candidate becomes legal or any throttled head is released (the cycle
// ActAllowedAt names), also bounded, while a head is throttled, by the
// next refresh due; never before now + 1.
#ifndef HAMMERTIME_SRC_CHECK_FRFCFS_REF_H_
#define HAMMERTIME_SRC_CHECK_FRFCFS_REF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mc/check_hooks.h"
#include "mc/controller.h"

namespace ht {

class RefFrFcfs {
 public:
  // Fault injection for testing the checker itself: pass 3 forgets the
  // "no older request wants the open row" rule.
  void set_broken(bool broken) { broken_ = broken; }

  // The decision TryRequests must make for `channel` at `now`. `memoized`
  // is always false: the reference never memoizes.
  ScheduleDecision Decide(const MemoryController& mc, uint32_t channel, Cycle now);

 private:
  bool broken_ = false;
  std::vector<MemoryController::QueuedRequest> queue_;  // Reused buffer.
};

// Attached to a MemoryController, checks every TryRequests decision:
// a scan must match RefFrFcfs exactly (command, request, retry cycle and
// throttle count); a memoized call must be one the reference also issues
// nothing on, with the reference's throttle count and a retry no later
// than the reference's.
class SchedulerOracle final : public McCheckObserver {
 public:
  // `break_after` != 0 breaks the reference after that many decisions.
  SchedulerOracle(const MemoryController& mc, uint64_t break_after, size_t max_divergences);

  void OnSchedule(uint32_t channel, Cycle now, const ScheduleDecision& decision) override;

  bool ok() const { return total_divergences_ == 0; }
  uint64_t decisions_checked() const { return decisions_checked_; }
  uint64_t total_divergences() const { return total_divergences_; }
  std::string Report() const;

 private:
  const MemoryController& mc_;
  RefFrFcfs reference_;
  uint64_t break_after_;
  size_t max_divergences_;
  uint64_t decisions_checked_ = 0;
  uint64_t total_divergences_ = 0;
  std::vector<std::string> divergences_;
};

// "ACT seq=12", "no issue, retry 480", ... for divergence reports.
std::string ToString(const ScheduleDecision& decision);

}  // namespace ht

#endif  // HAMMERTIME_SRC_CHECK_FRFCFS_REF_H_
