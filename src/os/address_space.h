// Per-domain virtual address spaces (page tables) for the model OS.
// Virtual addresses are namespaced by domain so streams can never collide
// by accident: va = (domain+1) << 36 | offset.
#ifndef HAMMERTIME_SRC_OS_ADDRESS_SPACE_H_
#define HAMMERTIME_SRC_OS_ADDRESS_SPACE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/types.h"

namespace ht {

class AddressSpace {
 public:
  explicit AddressSpace(DomainId domain) : domain_(domain) {}

  static VirtAddr BaseFor(DomainId domain) {
    return (static_cast<VirtAddr>(domain) + 1) << 36;
  }

  DomainId domain() const { return domain_; }

  void MapPage(VirtAddr va_page, uint64_t frame) { pages_[va_page / kPageBytes] = frame; }

  std::optional<uint64_t> FrameOf(VirtAddr va) const {
    auto it = pages_.find(va / kPageBytes);
    if (it == pages_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  std::optional<PhysAddr> Translate(VirtAddr va) const {
    auto frame = FrameOf(va);
    if (!frame.has_value()) {
      return std::nullopt;
    }
    return *frame * kPageBytes + va % kPageBytes;
  }

  const std::unordered_map<uint64_t, uint64_t>& pages() const { return pages_; }

 private:
  DomainId domain_;
  std::unordered_map<uint64_t, uint64_t> pages_;  // va page number -> frame.
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_OS_ADDRESS_SPACE_H_
