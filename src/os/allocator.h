// Page-frame allocation policies — the OS half of isolation-centric
// defenses (§4.1). Each policy is a partition of the frames into pools,
// served by one engine (FrameAllocator): a domain takes the next pool
// round-robin on its first allocation, and a pool hands out its freed
// frames (last freed first) before its unused ones in ascending order.
//
//  * LinearAllocator       — baseline first-fit: one pool, no isolation.
//  * BankAwareAllocator    — PALLOC-style [61]: a pool per bank. Only
//                            *possible* when the BIOS disables interleaving,
//                            which is the performance problem §4.1
//                            highlights.
//  * GuardRowAllocator     — ZebRAM-style [34]: a pool per domain slot, with
//                            b unusable guard rows between adjacent slots;
//                            wastes capacity proportional to b and slots.
//  * SubarrayAwareAllocator— the paper's proposal: with subarray-isolated
//                            interleaving enabled, a pool per subarray band,
//                            keeping full bank-level parallelism.
//
// A policy that cannot deliver isolation under the active interleaving
// scheme builds no pools and says so instead of silently degrading; guard
// rows report their capacity waste (experiment E10).
#ifndef HAMMERTIME_SRC_OS_ALLOCATOR_H_
#define HAMMERTIME_SRC_OS_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "mc/addrmap.h"

namespace ht {

class FrameAllocator {
 public:
  virtual ~FrameAllocator() = default;

  // Allocates one 4 KB frame for `domain`; nullopt when the domain's pool
  // is exhausted or the policy is infeasible.
  std::optional<uint64_t> AllocFrame(DomainId domain);
  // Returns `frame` to `domain`'s pool; a domain that never allocated has
  // no pool, and the frame is dropped.
  void FreeFrame(DomainId domain, uint64_t frame);

  // Whether the policy can actually provide its isolation guarantee under
  // the address-mapping scheme it was constructed with.
  bool isolation_feasible() const { return feasible_; }

  // Frames permanently unusable due to the policy (guard rows, alignment).
  uint64_t wasted_frames() const { return wasted_frames_; }

  uint64_t total_frames() const { return total_frames_; }

  // Subarray group assigned to `domain` (for MC coordination), if the
  // policy tracks one.
  virtual std::optional<uint32_t> DomainGroup(DomainId domain) const {
    (void)domain;
    return std::nullopt;
  }

 protected:
  // Runs of consecutive unused frames, plus the frames freed back.
  struct Pool {
    struct Run {
      uint64_t first;
      uint64_t count;
    };
    std::vector<Run> runs;  // Unused frames, ascending.
    size_t next_run = 0;
    std::vector<uint64_t> free_list;

    // Appends `count` frames from `first`, extending the last run when
    // they continue it.
    void Add(uint64_t first, uint64_t count);
  };

  explicit FrameAllocator(uint64_t total_frames) : total_frames_(total_frames) {}

  // Pool assigned to `domain`, if it has allocated.
  std::optional<uint32_t> PoolOf(DomainId domain) const;

  bool feasible_ = true;
  uint64_t wasted_frames_ = 0;
  std::vector<Pool> pools_;  // The partition; empty when infeasible.
  std::unordered_map<DomainId, uint32_t> domain_pools_;

 private:
  uint64_t total_frames_;
  uint32_t next_pool_ = 0;
};

class LinearAllocator : public FrameAllocator {
 public:
  explicit LinearAllocator(uint64_t total_frames);
};

class BankAwareAllocator : public FrameAllocator {
 public:
  explicit BankAwareAllocator(const AddressMapper& mapper);

  // Bank assigned to a domain (round-robin on first allocation).
  std::optional<uint32_t> BankOf(DomainId domain) const { return PoolOf(domain); }
};

class GuardRowAllocator : public FrameAllocator {
 public:
  // `expected_domains` fixes the partition; `blast_radius` is b.
  GuardRowAllocator(const AddressMapper& mapper, uint32_t expected_domains,
                    uint32_t blast_radius);
};

class SubarrayAwareAllocator : public FrameAllocator {
 public:
  explicit SubarrayAwareAllocator(const AddressMapper& mapper);

  std::optional<uint32_t> DomainGroup(DomainId domain) const override { return PoolOf(domain); }

  // Domains beyond the number of subarray groups share groups; callers can
  // check how many domains ended up co-resident.
  uint32_t domains_sharing_groups() const {
    return static_cast<uint32_t>(domain_pools_.size() > pools_.size()
                                     ? domain_pools_.size() - pools_.size()
                                     : 0);
  }
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_OS_ALLOCATOR_H_
