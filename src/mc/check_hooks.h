// Differential-checking hook on the memory controller's FR-FCFS scheduler.
//
// src/check/ implements this interface with a naive reference scheduler
// (RefFrFcfs) and attaches it via MemoryController::set_check_observer().
// Like dram/check_hooks.h, the interface lives with the component it
// observes so the MC never depends on the library that verifies it; a
// detached observer costs one predictable branch per scheduling call.
#ifndef HAMMERTIME_SRC_MC_CHECK_HOOKS_H_
#define HAMMERTIME_SRC_MC_CHECK_HOOKS_H_

#include <cstdint>

#include "common/types.h"
#include "dram/command.h"

namespace ht {

// What one TryRequests call decided, reported before anything issues.
struct ScheduleDecision {
  // The scheduling memo (next_sched) answered without scanning; `retry`
  // is the memoized cycle and `throttle_stalls` the throttled heads the
  // skipped scan would have met. A memoized call never issues.
  bool memoized = false;
  bool issued = false;
  // When issued: the command (RD, WR, ACT or PRE) and the arrival
  // sequence number of the request it serves.
  DdrCommandType command = DdrCommandType::kRead;
  uint64_t seq = 0;
  // When not issued: the cycle the scan reported as its retry.
  Cycle retry = 0;
  // mc.throttle_stalls counted for this call's cycle: by the scan, or by
  // the memo's open throttle interval.
  uint64_t throttle_stalls = 0;
};

class McCheckObserver {
 public:
  virtual ~McCheckObserver() = default;

  // Called on every TryRequests call for a channel whose request queue is
  // non-empty, after the decision is made and before any command issues
  // or queue entry leaves, so the observer sees the exact queue, device
  // and mitigation state the scheduler decided from.
  virtual void OnSchedule(uint32_t channel, Cycle now, const ScheduleDecision& decision) = 0;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_MC_CHECK_HOOKS_H_
