#include "os/allocator.h"

#include <algorithm>

namespace ht {

// --- Engine -----------------------------------------------------------------

void FrameAllocator::Pool::Add(uint64_t first, uint64_t count) {
  if (!runs.empty() && runs.back().first + runs.back().count == first) {
    runs.back().count += count;
  } else if (count > 0) {
    runs.push_back({first, count});
  }
}

std::optional<uint32_t> FrameAllocator::PoolOf(DomainId domain) const {
  auto it = domain_pools_.find(domain);
  return it == domain_pools_.end() ? std::nullopt : std::optional<uint32_t>(it->second);
}

std::optional<uint64_t> FrameAllocator::AllocFrame(DomainId domain) {
  if (pools_.empty()) {
    return std::nullopt;  // Infeasible: refuse rather than lie.
  }
  auto [it, inserted] = domain_pools_.try_emplace(domain, next_pool_);
  if (inserted) {
    next_pool_ = (next_pool_ + 1) % static_cast<uint32_t>(pools_.size());
  }
  Pool& pool = pools_[it->second];
  if (!pool.free_list.empty()) {
    const uint64_t frame = pool.free_list.back();
    pool.free_list.pop_back();
    return frame;
  }
  if (pool.next_run >= pool.runs.size()) {
    return std::nullopt;
  }
  Pool::Run& run = pool.runs[pool.next_run];
  const uint64_t frame = run.first++;
  if (--run.count == 0) {
    ++pool.next_run;
  }
  return frame;
}

void FrameAllocator::FreeFrame(DomainId domain, uint64_t frame) {
  if (const auto pool = PoolOf(domain)) {
    pools_[*pool].free_list.push_back(frame);
  }
}

// --- Policies ---------------------------------------------------------------

LinearAllocator::LinearAllocator(uint64_t total_frames) : FrameAllocator(total_frames) {
  pools_.resize(1);
  pools_[0].Add(0, total_frames);
}

namespace {

uint64_t FramesPerBank(const DramOrg& org) {
  return static_cast<uint64_t>(org.rows_per_bank()) * org.columns / kLinesPerPage;
}

}  // namespace

BankAwareAllocator::BankAwareAllocator(const AddressMapper& mapper)
    : FrameAllocator(FramesPerBank(mapper.org()) * mapper.org().total_banks()) {
  feasible_ = mapper.scheme() == InterleaveScheme::kBankSequential;
  if (!feasible_) {
    return;
  }
  // In the bank-sequential layout, bank b's frames are contiguous.
  const uint64_t frames_per_bank = FramesPerBank(mapper.org());
  pools_.resize(mapper.org().total_banks());
  for (uint32_t bank = 0; bank < pools_.size(); ++bank) {
    pools_[bank].Add(bank * frames_per_bank, frames_per_bank);
  }
}

GuardRowAllocator::GuardRowAllocator(const AddressMapper& mapper, uint32_t expected_domains,
                                     uint32_t blast_radius)
    : FrameAllocator(mapper.total_lines() / kLinesPerPage) {
  const uint32_t slots = std::max(1u, expected_domains);
  const uint32_t rows = mapper.org().rows_per_bank();
  // Partition the row index space into `slots` slots separated by
  // `blast_radius` guard rows. Works under any scheme that keeps a frame
  // within one row index (checked empirically below).
  const uint32_t guards = blast_radius * (slots - 1);
  feasible_ = guards < rows && (rows - guards) / slots > 0;
  if (!feasible_) {
    return;
  }
  const uint32_t rows_per_slot = (rows - guards) / slots;
  // Slot of each row; -1 marks a guard row or the trailing remainder.
  std::vector<int> row_slot(rows, -1);
  const uint32_t stride = rows_per_slot + blast_radius;
  for (uint32_t slot = 0; slot < slots; ++slot) {
    std::fill_n(row_slot.begin() + slot * stride, rows_per_slot, static_cast<int>(slot));
  }

  pools_.resize(slots);
  for (uint64_t frame = 0; frame < total_frames(); ++frame) {
    int frame_slot = -2;  // -2 = unset, -1 = wasted.
    for (uint64_t line = frame * kLinesPerPage;
         line < (frame + 1) * kLinesPerPage && frame_slot != -1; ++line) {
      const int slot = row_slot[mapper.MapLine(line).row];
      if (frame_slot == -2) {
        frame_slot = slot;
      } else if (slot != frame_slot) {
        frame_slot = -1;  // Straddles a guard boundary: unusable.
      }
    }
    if (frame_slot >= 0) {
      pools_[frame_slot].Add(frame, 1);
    } else {
      ++wasted_frames_;
    }
  }
}

SubarrayAwareAllocator::SubarrayAwareAllocator(const AddressMapper& mapper)
    : FrameAllocator(mapper.total_lines() / kLinesPerPage) {
  feasible_ = mapper.scheme() == InterleaveScheme::kSubarrayIsolated;
  if (!feasible_) {
    return;
  }
  const uint32_t groups = mapper.org().subarrays_per_bank;
  const uint64_t frames_per_band = mapper.LinesPerSubarrayBand() / kLinesPerPage;
  pools_.resize(groups);
  for (uint32_t g = 0; g < groups; ++g) {
    pools_[g].Add(g * frames_per_band, frames_per_band);
  }
}

}  // namespace ht
