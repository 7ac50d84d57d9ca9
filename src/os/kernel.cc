#include "os/kernel.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <stdexcept>

namespace ht {

HostKernel::HostKernel(MemoryController* mc, FrameAllocator* allocator)
    : mc_(mc), allocator_(allocator) {
  domains_.push_back({{}, AddressSpace(0), false});  // Id 0 is never handed out.
}

const HostKernel::Domain& HostKernel::Live(DomainId domain) const {
  if (!HasDomain(domain)) {
    throw std::out_of_range("HostKernel: domain " + std::to_string(domain) + " is not live");
  }
  return domains_[domain];
}

DomainId HostKernel::CreateDomain(const DomainSpec& spec) {
  const auto id = static_cast<DomainId>(domains_.size());
  domains_.push_back({spec, AddressSpace(id), true});
  return id;
}

void HostKernel::DestroyDomain(DomainId domain) {
  if (!HasDomain(domain)) {
    return;
  }
  Domain& entry = domains_[domain];
  const std::span<const uint64_t> frames = entry.space.pages().frames;
  for (uint64_t frame : frames) {
    frame_va_[frame] = 0;
    allocator_->FreeFrame(domain, frame);
  }
  stats_.Add("kernel.pages_freed", frames.size());
  stats_.Add("kernel.domains_destroyed");
  filled_regions_.erase(std::remove_if(filled_regions_.begin(), filled_regions_.end(),
                                       [domain](const Region& r) { return r.domain == domain; }),
                        filled_regions_.end());
  entry.spec = {};
  entry.space = AddressSpace(domain);  // Releases the page table.
  entry.live = false;
  ++map_generation_;
}

std::optional<VirtAddr> HostKernel::AllocRegion(DomainId domain, uint64_t pages) {
  Domain& entry = Live(domain);
  const VirtAddr base = entry.space.end_va();
  std::vector<uint64_t> frames;
  frames.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    auto frame = allocator_->AllocFrame(domain);
    if (!frame.has_value()) {
      for (uint64_t f : frames) {
        allocator_->FreeFrame(domain, f);
      }
      stats_.Add("kernel.alloc_failures");
      return std::nullopt;
    }
    frames.push_back(*frame);
  }
  for (uint64_t i = 0; i < pages; ++i) {
    entry.space.MapPage(base + i * kPageBytes, frames[i]);
    SetFrameVa(frames[i], base + i * kPageBytes);
  }
  stats_.Add("kernel.pages_allocated", pages);

  // §4.1 coordination: tell the MC which subarray group this domain uses
  // (the ASID-style table) so it can enforce isolation.
  auto group = allocator_->DomainGroup(domain);
  if (group.has_value()) {
    mc_->SetDomainGroup(domain, *group);
  }
  return base;
}

std::function<std::optional<PhysAddr>(VirtAddr)> HostKernel::TranslatorFor(DomainId domain) {
  return [this, domain, memo = PageMemo{}](VirtAddr va) mutable {
    return MemoTranslate(memo, domain, va);
  };
}

std::function<std::optional<PhysAddr>(VirtAddr)> HostKernel::MuxTranslator() {
  // A VA names its domain, so a page remembered by VA alone stays exact.
  return [this, memo = PageMemo{}](VirtAddr va) mutable {
    return MemoTranslate(memo, DomainOfVa(va), va);
  };
}

void HostKernel::SetFrameVa(uint64_t frame, VirtAddr va_page) {
  frame_va_.resize(std::max<size_t>(frame_va_.size(), frame + 1));
  frame_va_[frame] = va_page;
}

DomainId HostKernel::OwnerOfPhys(PhysAddr addr) const {
  const auto located = LocatePhys(addr);
  return located.has_value() ? located->first : kInvalidDomain;
}

uint64_t HostKernel::PatternValue(DomainId domain, VirtAddr va_line) {
  uint64_t x = (static_cast<uint64_t>(domain) << 48) ^ va_line ^ 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void HostKernel::WriteLineToDram(PhysAddr pa, uint64_t value) {
  const DdrCoord coord = mc_->mapper().Map(pa);
  mc_->device(coord.channel).WriteLine(coord.rank, coord.bank, coord.row, coord.column, value);
}

uint64_t HostKernel::ReadLineFromDram(PhysAddr pa) const {
  const DdrCoord coord = mc_->mapper().Map(pa);
  return mc_->device(coord.channel).ReadLine(coord.rank, coord.bank, coord.row, coord.column);
}

void HostKernel::RequirePageAligned(const char* caller, DomainId domain, VirtAddr base) {
  if (base % kPageBytes != 0) {
    std::fprintf(stderr, "%s: domain %u: base 0x%llx is not page-aligned\n", caller, domain,
                 static_cast<unsigned long long>(base));
    std::abort();
  }
}

// Fill and verify translate once per page: with a page-aligned base every
// line of a VA page lives in the same frame, at the same line offset.
void HostKernel::FillRegion(DomainId domain, VirtAddr base, uint64_t pages) {
  RequirePageAligned("FillRegion", domain, base);
  for (uint64_t p = 0; p < pages; ++p) {
    const VirtAddr va_page = base + p * kPageBytes;
    const auto pa_page = Translate(domain, va_page);
    if (!pa_page.has_value()) {
      continue;
    }
    for (uint64_t l = 0; l < kLinesPerPage; ++l) {
      WriteLineToDram(*pa_page + l * kLineBytes, PatternValue(domain, va_page + l * kLineBytes));
    }
  }
  filled_regions_.push_back({domain, base, pages});
}

VerifyResult HostKernel::VerifyRegion(DomainId domain, VirtAddr base, uint64_t pages) const {
  RequirePageAligned("VerifyRegion", domain, base);
  VerifyResult result;
  const DomainSpec& domain_spec = spec(domain);
  // §4.4: integrity-checked enclave corruption = system lockup.
  const bool lockup = domain_spec.enclave && domain_spec.integrity_checked;
  for (uint64_t p = 0; p < pages; ++p) {
    const VirtAddr va_page = base + p * kPageBytes;
    const auto pa_page = Translate(domain, va_page);
    if (!pa_page.has_value()) {
      continue;
    }
    result.lines_checked += kLinesPerPage;
    for (uint64_t l = 0; l < kLinesPerPage; ++l) {
      if (ReadLineFromDram(*pa_page + l * kLineBytes) !=
          PatternValue(domain, va_page + l * kLineBytes)) {
        ++result.corrupted_lines;
        if (lockup) {
          ++result.dos_lockups;
        }
      }
    }
  }
  return result;
}

VerifyResult HostKernel::VerifyAll() const {
  VerifyResult total;
  for (const Region& region : filled_regions_) {
    const VerifyResult r = VerifyRegion(region.domain, region.base, region.pages);
    total.lines_checked += r.lines_checked;
    total.corrupted_lines += r.corrupted_lines;
    total.dos_lockups += r.dos_lockups;
  }
  return total;
}

std::vector<PhysAddr> HostKernel::NeighborRowAddrs(PhysAddr addr, uint32_t blast) const {
  const AddressMapper& mapper = mc_->mapper();
  const DdrCoord coord = mapper.Map(addr);
  const uint32_t rows = mapper.org().rows_per_bank();
  std::vector<PhysAddr> neighbors;
  neighbors.reserve(2 * blast);
  for (uint32_t d = 1; d <= blast; ++d) {
    for (int sign = -1; sign <= 1; sign += 2) {
      const int64_t row = static_cast<int64_t>(coord.row) + sign * static_cast<int64_t>(d);
      if (row < 0 || row >= static_cast<int64_t>(rows)) {
        continue;
      }
      DdrCoord neighbor = coord;
      neighbor.row = static_cast<uint32_t>(row);
      neighbor.column = 0;
      neighbors.push_back(mapper.AddrOf(neighbor));
    }
  }
  return neighbors;
}

bool HostKernel::MovePage(DomainId domain, VirtAddr va_page) {
  const auto new_frame = allocator_->AllocFrame(domain);
  if (!new_frame.has_value()) {
    stats_.Add("kernel.move_failures");
    return false;
  }
  if (!MovePageToFrame(domain, va_page, *new_frame)) {
    allocator_->FreeFrame(domain, *new_frame);
    return false;
  }
  return true;
}

bool HostKernel::MovePageToFrame(DomainId domain, VirtAddr va_page, uint64_t new_frame) {
  AddressSpace& domain_space = Live(domain).space;
  const VirtAddr base = va_page / kPageBytes * kPageBytes;
  const auto old_frame = domain_space.FrameOf(base);
  if (!old_frame.has_value()) {
    return false;
  }
  // Copy line by line (the proposed uncore move, §4.2). Corrupted data is
  // copied verbatim: migration does not launder flips.
  for (uint64_t l = 0; l < kLinesPerPage; ++l) {
    const PhysAddr src = *old_frame * kPageBytes + l * kLineBytes;
    const PhysAddr dst = new_frame * kPageBytes + l * kLineBytes;
    WriteLineToDram(dst, ReadLineFromDram(src));
  }
  domain_space.MapPage(base, new_frame);
  ++map_generation_;
  SetFrameVa(new_frame, base);
  frame_va_[*old_frame] = 0;
  allocator_->FreeFrame(domain, *old_frame);
  ++page_moves_;
  stats_.Add("kernel.page_moves");
  HT_TRACE(trace_, trace_clock_ != nullptr ? *trace_clock_ : 0, TraceKind::kPageMove, 0, 0, 0,
           static_cast<uint32_t>(domain), new_frame);
  return true;
}

std::optional<std::pair<DomainId, VirtAddr>> HostKernel::LocatePhys(PhysAddr addr) const {
  const uint64_t frame = addr / kPageBytes;
  if (frame >= frame_va_.size() || frame_va_[frame] == 0) {
    return std::nullopt;
  }
  return std::pair{DomainOfVa(frame_va_[frame]), frame_va_[frame]};
}

bool HostKernel::MovePageByPhys(PhysAddr addr) {
  const auto located = LocatePhys(addr);
  return located.has_value() && MovePage(located->first, located->second);
}

bool HostKernel::MovePageByPhysToFrame(PhysAddr addr, uint64_t new_frame) {
  const auto located = LocatePhys(addr);
  return located.has_value() && MovePageToFrame(located->first, located->second, new_frame);
}

std::vector<DomainId> HostKernel::RowOwners(uint32_t channel, uint32_t rank, uint32_t bank,
                                            uint32_t row) const {
  const AddressMapper& mapper = mc_->mapper();
  std::vector<DomainId> owners;
  for (uint32_t column = 0; column < mapper.org().columns; ++column) {
    const PhysAddr pa = mapper.AddrOf({channel, rank, bank, row, column});
    const DomainId owner = OwnerOfPhys(pa);
    if (owner != kInvalidDomain && std::find(owners.begin(), owners.end(), owner) == owners.end()) {
      owners.push_back(owner);
    }
  }
  return owners;
}

FlipAttribution HostKernel::AttributeFlips() const {
  FlipAttribution result;
  for (uint32_t c = 0; c < mc_->channels(); ++c) {
    for (const FlipRecord& flip : mc_->device(c).flip_records()) {
      ++result.total_flips;
      const auto victim_owners = RowOwners(c, flip.rank, flip.bank, flip.victim_row);
      const auto aggressor_owners = RowOwners(c, flip.rank, flip.bank, flip.aggressor_row);
      if (victim_owners.empty()) {
        ++result.unattributed;
        continue;
      }
      bool cross = false;
      for (DomainId victim : victim_owners) {
        if (std::find(aggressor_owners.begin(), aggressor_owners.end(), victim) ==
            aggressor_owners.end()) {
          cross = true;
        }
        if (HasDomain(victim) && domains_[victim].spec.enclave) {
          ++result.enclave_victims;
        }
      }
      if (cross) {
        ++result.cross_domain;
      } else {
        ++result.intra_domain;
      }
    }
  }
  return result;
}

}  // namespace ht
