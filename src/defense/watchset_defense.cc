#include "defense/watchset_defense.h"

#include <set>

namespace ht {

void WatchSetDefense::Watch(DomainId domain, VirtAddr base, uint64_t pages) {
  // Collect the distinct (channel, rank, bank, row) coordinates the
  // region touches; keep one line address per row as the refresh target.
  // The region is translated once per page (hence the aligned base).
  HostKernel::RequirePageAligned("WatchSetDefense::Watch", domain, base);
  const AddressMapper& mapper = kernel_->mc().mapper();
  std::set<uint64_t> seen;
  for (uint64_t p = 0; p < pages; ++p) {
    const auto pa_page = kernel_->Translate(domain, base + p * kPageBytes);
    if (!pa_page.has_value()) {
      continue;
    }
    for (uint64_t l = 0; l < kLinesPerPage; ++l) {
      const PhysAddr pa = *pa_page + l * kLineBytes;
      const DdrCoord coord = mapper.Map(pa);
      uint64_t key = coord.channel;
      key = (key << 8) | coord.rank;
      key = (key << 8) | coord.bank;
      key = (key << 32) | coord.row;
      if (seen.insert(key).second) {
        watched_rows_.push_back(pa);
      }
    }
  }
  stats_.Add("defense.watched_rows", watched_rows_.size());
}

void WatchSetDefense::Tick(Cycle now) {
  if (now < next_sweep_ || watched_rows_.empty()) {
    return;
  }
  next_sweep_ = now + config_.period;
  HT_TRACE(trace_, now, TraceKind::kDefenseAction, 0, 0, 0, 0, watched_rows_.size());
  // The watched rows are the potential victims: refreshing each one
  // resets its accumulated disturbance, so no aggressor — inside or
  // outside the set — can reach the MAC between sweeps (as long as
  // period << window/MAC-rate).
  MemoryController& mc = kernel_->mc();
  for (PhysAddr addr : watched_rows_) {
    if (mc.RefreshRow(addr, /*auto_precharge=*/true, now)) {
      c_watch_refreshes_->Increment();
    } else {
      c_refresh_dropped_->Increment();
    }
  }
  stats_.Add("defense.watch_sweeps");
}

}  // namespace ht
