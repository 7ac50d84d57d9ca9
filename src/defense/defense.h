// Software defense framework.
//
// A Defense is host-OS code reacting to the hardware events the paper's
// primitives expose: precise ACT interrupts (§4.2) and — for legacy
// PMU-based defenses like ANVIL — CPU cache-miss samples. Defenses act
// through kernel services (page migration, neighbour-row computation,
// refresh instructions, cache-line locking).
//
// Isolation-centric defenses are allocation-time policies (src/os
// allocator + interleaving scheme) and need no runtime hook; the sim
// layer's SystemConfig selects them.
#ifndef HAMMERTIME_SRC_DEFENSE_DEFENSE_H_
#define HAMMERTIME_SRC_DEFENSE_DEFENSE_H_

#include <memory>
#include <string>

#include "common/stats.h"
#include "common/telemetry/trace.h"
#include "common/types.h"
#include "cpu/cache.h"
#include "cpu/core.h"
#include "mc/act_counter.h"
#include "os/kernel.h"

namespace ht {

class Defense {
 public:
  virtual ~Defense() = default;

  virtual std::string name() const = 0;

  // Wires the defense to the system. Called once before the run starts.
  virtual void Attach(HostKernel* kernel, Cache* cache) {
    kernel_ = kernel;
    cache_ = cache;
  }

  // Delivery of the §4.2 ACT-counter overflow interrupt.
  virtual void OnActInterrupt(const ActInterrupt& irq, Cycle now) {
    (void)irq;
    (void)now;
  }

  // CPU-PMU-visible LLC miss sample (what ANVIL-class defenses consume).
  // DMA traffic never generates these events.
  virtual void OnMiss(const MissEvent& event, Cycle now) {
    (void)event;
    (void)now;
  }

  // Periodic housekeeping; called once per simulated cycle.
  virtual void Tick(Cycle now) { (void)now; }

  // Earliest cycle >= now at which Tick could change state or emit a
  // stat. The conservative default (`now`) keeps per-cycle ticking for
  // subclasses that override Tick without overriding this; defenses with
  // a known deadline override it so the System can skip idle stretches.
  // Event hooks (OnActInterrupt/OnMiss) need no coverage here — they only
  // fire while the MC is active, which pins the System's clock anyway.
  virtual Cycle NextWake(Cycle now) const { return now; }

  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }

  // Attach (or detach with nullptr) a trace buffer; subclasses emit
  // trigger/action/quarantine events through it.
  void set_trace(TraceBuffer* trace) { trace_ = trace; }

 protected:
  HostKernel* kernel_ = nullptr;
  Cache* cache_ = nullptr;
  StatSet stats_;
  TraceBuffer* trace_ = nullptr;
};

// A defense that does nothing. MakeDefense(kNone) installs no defense at
// all (nullptr), which System skips outright.
class NoDefense : public Defense {
 public:
  std::string name() const override { return "none"; }
  Cycle NextWake(Cycle now) const override {
    (void)now;
    return kNeverCycle;
  }
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_DEFENSE_DEFENSE_H_
