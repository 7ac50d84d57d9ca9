// A reserved pool of destination frames for defensive page migration.
//
// Migrating a hot page into an arbitrary free frame can place it adjacent
// to victim rows again (the allocator neither knows nor cares); frames in
// the quarantine pool neighbour only other quarantined hot pages, so an
// attacker hammering a migrated page only disturbs its own kind. A
// row-group of guard frames is trimmed from each end of the pool so its
// boundary rows stay out of blast range of regular allocations.
//
// The pool is tenant-aware: frames are carved into per-domain sub-pools
// in row-group-sized chunks on first use, so pages quarantined for
// different tenants never share a row-group — one tenant hammering its
// own quarantined page cannot reach another tenant's quarantined data.
// With a single migrating domain (every pre-cloud scenario) the handed
// out frame sequence is identical to the historical shared-stack pool.
// A churned-away tenant's sub-pool is recycled by Prune().
#ifndef HAMMERTIME_SRC_DEFENSE_QUARANTINE_H_
#define HAMMERTIME_SRC_DEFENSE_QUARANTINE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "os/kernel.h"

namespace ht {

class QuarantinePool {
 public:
  // Reserves `pages` frames from the kernel's allocator under a dedicated
  // host domain. Safe to call once at defense attach time.
  void Init(HostKernel& kernel, uint32_t pages);

  // Migrates the page containing `addr` into a frame of the owning
  // domain's quarantine sub-pool, falling back to a regular MovePage when
  // the pool is exhausted. Returns false only if migration failed
  // outright.
  bool Migrate(HostKernel& kernel, PhysAddr addr);

  // Returns sub-pools of destroyed domains (tenant churn) to the free
  // pool for reuse by live tenants.
  void Prune(HostKernel& kernel);

  // Frames still available for future migrations (free + carved-unused).
  size_t remaining() const;
  uint64_t quarantine_migrations() const { return quarantine_migrations_; }
  uint64_t overflow_migrations() const { return overflow_migrations_; }

 private:
  // The domain's sub-pool, carving a fresh chunk from the back of the
  // free pool when it is empty. nullptr when nothing can be carved.
  std::vector<uint64_t>* PoolFor(DomainId domain);

  std::vector<uint64_t> free_;  // Un-carved frames; chunks taken from the back.
  std::map<DomainId, std::vector<uint64_t>> pools_;  // Per-domain carved frames.
  uint64_t chunk_pages_ = 1;  // Row-group size captured at Init.
  uint64_t quarantine_migrations_ = 0;
  uint64_t overflow_migrations_ = 0;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_DEFENSE_QUARANTINE_H_
