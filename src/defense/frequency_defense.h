// Frequency-centric software defenses (§4.2), both built on the precise
// ACT interrupt:
//
//  * ActRemapDefense — "ACT wear-leveling": rows repeatedly reported by
//    the interrupt get their hot page migrated to a fresh physical
//    location, breaking the aggressor/victim adjacency.
//  * CacheLockDefense — first-line variant: pin the reported hot line in
//    the LLC for the rest of the refresh window so it stops generating
//    ACTs; fall back to page migration when the set's locked-way budget
//    is exhausted (§4.2: "data remapping and movement would then only be
//    used as a fallback if the way(s) become full").
#ifndef HAMMERTIME_SRC_DEFENSE_FREQUENCY_DEFENSE_H_
#define HAMMERTIME_SRC_DEFENSE_FREQUENCY_DEFENSE_H_

#include <deque>
#include <vector>

#include "defense/defense.h"
#include "defense/quarantine.h"
#include "mc/act_counter.h"

namespace ht {

struct ActRemapConfig {
  // Interrupts naming the same row before migration triggers.
  uint32_t interrupts_per_row = 2;
  // Forget per-row interrupt counts after this many cycles (one refresh
  // window by default — pass the device value in).
  Cycle history_window = 4u << 20;
  // Frames reserved as a quarantine destination pool. Migrating a hot
  // page into an arbitrary free frame can land it adjacent to victim
  // data again; quarantine frames neighbour only other quarantined hot
  // pages, so sustained hammering there is self-inflicted.
  uint32_t quarantine_pages = 128;
};

class ActRemapDefense : public Defense {
 public:
  explicit ActRemapDefense(const ActRemapConfig& config) : config_(config) {
    c_interrupts_ = stats_.counter("defense.interrupts");
    c_unactionable_ = stats_.counter("defense.unactionable_interrupts");
    c_pages_migrated_ = stats_.counter("defense.pages_migrated");
    c_migration_failures_ = stats_.counter("defense.migration_failures");
    g_quarantine_free_ = stats_.gauge("defense.quarantine_free");
    row_hits_.set_probe_counter(stats_.counter("act.table_probes"));
  }

  std::string name() const override { return "act-remap"; }

  void Attach(HostKernel* kernel, Cache* cache) override;
  void OnActInterrupt(const ActInterrupt& irq, Cycle now) override;
  void Tick(Cycle now) override;
  Cycle NextWake(Cycle now) const override {
    return next_forget_ > now ? next_forget_ : now;
  }

 private:
  // Key identifying a row: channel | rank | bank | row packed.
  uint64_t RowKeyOf(PhysAddr addr) const;

  ActRemapConfig config_;
  // Per-row interrupt counts on flat epoch-tagged storage: the
  // refresh-window forget in Tick() is an O(1) epoch bump, not a clear().
  RowActTable row_hits_;
  QuarantinePool quarantine_;
  Cycle next_forget_ = 0;
  Counter* c_interrupts_;
  Counter* c_unactionable_;
  Counter* c_pages_migrated_;
  Counter* c_migration_failures_;
  Gauge* g_quarantine_free_;
};

struct CacheLockConfig {
  Cycle lock_duration = 4u << 20;  // Hold locks one refresh window.
  uint32_t quarantine_pages = 128;  // Fallback-migration destination pool.
};

class CacheLockDefense : public Defense {
 public:
  explicit CacheLockDefense(const CacheLockConfig& config) : config_(config) {
    c_interrupts_ = stats_.counter("defense.interrupts");
    c_unactionable_ = stats_.counter("defense.unactionable_interrupts");
    c_lines_locked_ = stats_.counter("defense.lines_locked");
    c_locks_released_ = stats_.counter("defense.locks_released");
    g_locks_held_ = stats_.gauge("defense.locks_held");
  }

  std::string name() const override { return "cache-lock"; }

  void Attach(HostKernel* kernel, Cache* cache) override;
  void OnActInterrupt(const ActInterrupt& irq, Cycle now) override;
  void Tick(Cycle now) override;
  Cycle NextWake(Cycle now) const override {
    if (held_.empty()) {
      return kNeverCycle;
    }
    return held_.front().release_at > now ? held_.front().release_at : now;
  }

 private:
  struct HeldLock {
    PhysAddr addr = 0;
    Cycle release_at = 0;
  };

  CacheLockConfig config_;
  std::deque<HeldLock> held_;
  QuarantinePool quarantine_;
  Cycle next_window_ = 0;  // Next quarantine prune.
  Counter* c_interrupts_;
  Counter* c_unactionable_;
  Counter* c_lines_locked_;
  Counter* c_locks_released_;
  Gauge* g_locks_held_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_DEFENSE_FREQUENCY_DEFENSE_H_
