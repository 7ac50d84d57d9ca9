// Per-domain virtual address spaces (page tables) for the model OS.
// Virtual addresses are namespaced by domain so streams can never collide
// by accident: va = (domain+1) << 36 | offset.
#ifndef HAMMERTIME_SRC_OS_ADDRESS_SPACE_H_
#define HAMMERTIME_SRC_OS_ADDRESS_SPACE_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"

namespace ht {

// The page table is dense: the kernel maps whole regions at the domain's
// bump pointer and never unmaps a single page, so the mapped pages are
// exactly [BaseFor(domain), end_va()) and page i's frame is frames_[i].
class AddressSpace {
 public:
  explicit AddressSpace(DomainId domain) : domain_(domain) {}

  static VirtAddr BaseFor(DomainId domain) {
    return (static_cast<VirtAddr>(domain) + 1) << 36;
  }

  VirtAddr base() const { return BaseFor(domain_); }
  // One past the last mapped page: where the next region starts.
  VirtAddr end_va() const { return base() + frames_.size() * kPageBytes; }

  // Appends the page at end_va() or remaps an already mapped page.
  // Aborts on anything else, which would leave a hole.
  void MapPage(VirtAddr va_page, uint64_t frame) {
    const uint64_t index = (va_page - base()) / kPageBytes;
    if (index < frames_.size()) {
      frames_[index] = frame;
    } else if (index == frames_.size()) {
      frames_.push_back(frame);
    } else {
      std::fprintf(stderr, "AddressSpace::MapPage: domain %u: va 0x%llx is not mapped or next\n",
                   domain_, static_cast<unsigned long long>(va_page));
      std::abort();
    }
  }

  std::optional<uint64_t> FrameOf(VirtAddr va) const {
    // Unsigned: a VA below base() wraps far past the end.
    const uint64_t index = (va - base()) / kPageBytes;
    if (index >= frames_.size()) {
      return std::nullopt;
    }
    return frames_[index];
  }

  std::optional<PhysAddr> Translate(VirtAddr va) const {
    auto frame = FrameOf(va);
    if (!frame.has_value()) {
      return std::nullopt;
    }
    return *frame * kPageBytes + va % kPageBytes;
  }

  // The mapped pages in VA order: page i, at VA base + i * kPageBytes,
  // lives in frame frames[i].
  struct Pages {
    VirtAddr base;
    std::span<const uint64_t> frames;
  };
  Pages pages() const { return {base(), frames_}; }

 private:
  DomainId domain_;
  std::vector<uint64_t> frames_;  // VA page index from base() -> frame.
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_OS_ADDRESS_SPACE_H_
