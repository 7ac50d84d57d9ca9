#include "defense/frequency_defense.h"

#include <algorithm>

namespace ht {

void ActRemapDefense::Attach(HostKernel* kernel, Cache* cache) {
  Defense::Attach(kernel, cache);
  quarantine_.Init(*kernel_, config_.quarantine_pages);
  stats_.Add("defense.quarantine_frames", quarantine_.remaining());
  g_quarantine_free_->Set(static_cast<double>(quarantine_.remaining()));
}

uint64_t ActRemapDefense::RowKeyOf(PhysAddr addr) const {
  const DdrCoord coord = kernel_->mc().mapper().Map(addr);
  return PackRowKey(coord.channel, coord.rank, coord.bank, coord.row);
}

void ActRemapDefense::OnActInterrupt(const ActInterrupt& irq, Cycle now) {
  if (irq.trigger_addr == kInvalidPhysAddr) {
    c_unactionable_->Increment();
    return;
  }
  c_interrupts_->Increment();
  const uint64_t key = RowKeyOf(irq.trigger_addr);
  if (row_hits_.Increment(key) < config_.interrupts_per_row) {
    return;
  }
  row_hits_.Reset(key);
  HT_TRACE(trace_, now, TraceKind::kDefenseTrigger, 0, 0, 0, 0,
           static_cast<uint64_t>(irq.trigger_addr));
  if (quarantine_.Migrate(*kernel_, irq.trigger_addr)) {
    c_pages_migrated_->Increment();
    g_quarantine_free_->Set(static_cast<double>(quarantine_.remaining()));
    HT_TRACE(trace_, now, TraceKind::kQuarantine, 0, 0, 0, 0,
             static_cast<uint64_t>(irq.trigger_addr));
  } else {
    c_migration_failures_->Increment();
  }
}

void ActRemapDefense::Tick(Cycle now) {
  if (now < next_forget_) {
    return;
  }
  next_forget_ = now + config_.history_window;
  row_hits_.AdvanceWindow();
  quarantine_.Prune(*kernel_);
  g_quarantine_free_->Set(static_cast<double>(quarantine_.remaining()));
}

void CacheLockDefense::Attach(HostKernel* kernel, Cache* cache) {
  Defense::Attach(kernel, cache);
  quarantine_.Init(*kernel_, config_.quarantine_pages);
}

void CacheLockDefense::OnActInterrupt(const ActInterrupt& irq, Cycle now) {
  if (irq.trigger_addr == kInvalidPhysAddr) {
    c_unactionable_->Increment();
    return;
  }
  c_interrupts_->Increment();
  HT_TRACE(trace_, now, TraceKind::kDefenseTrigger, 0, 0, 0, 0,
           static_cast<uint64_t>(irq.trigger_addr));
  if (!cache_->Lock(irq.trigger_addr)) {
    // The hot line usually isn't resident at interrupt time (the ACT that
    // overflowed the counter is its fill in flight). Fetch-and-lock: the
    // host reads the line and pins it.
    const DdrCoord coord = kernel_->mc().mapper().Map(irq.trigger_addr);
    const uint64_t value = kernel_->mc()
                               .device(coord.channel)
                               .ReadLine(coord.rank, coord.bank, coord.row, coord.column);
    cache_->Fill(irq.trigger_addr, value, /*dirty=*/false);
    if (!cache_->Lock(irq.trigger_addr)) {
      // Locked-way budget exhausted: fall back to migration (§4.2),
      // preferring a quarantine frame so the moved page cannot abut
      // victim data again.
      if (quarantine_.Migrate(*kernel_, irq.trigger_addr)) {
        stats_.Add("defense.fallback_migrations");
        HT_TRACE(trace_, now, TraceKind::kQuarantine, 0, 0, 0, 0,
                 static_cast<uint64_t>(irq.trigger_addr));
      } else {
        stats_.Add("defense.migration_failures");
      }
      return;
    }
  }
  c_lines_locked_->Increment();
  HT_TRACE(trace_, now, TraceKind::kDefenseAction, 0, 0, 0, 0,
           static_cast<uint64_t>(irq.trigger_addr));
  held_.push_back({irq.trigger_addr, now + config_.lock_duration});
  g_locks_held_->Set(static_cast<double>(held_.size()));
}

void CacheLockDefense::Tick(Cycle now) {
  while (!held_.empty() && held_.front().release_at <= now) {
    cache_->Unlock(held_.front().addr);
    held_.pop_front();
    c_locks_released_->Increment();
    g_locks_held_->Set(static_cast<double>(held_.size()));
  }
  // Opportunistic quarantine pruning (not advertised through NextWake: a
  // missed boundary only delays sub-pool recycling).
  if (now >= next_window_) {
    next_window_ = now + config_.lock_duration;
    quarantine_.Prune(*kernel_);
  }
}

}  // namespace ht
