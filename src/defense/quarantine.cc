#include "defense/quarantine.h"

#include <algorithm>

namespace ht {

void QuarantinePool::Init(HostKernel& kernel, uint32_t pages) {
  if (pages == 0) {
    return;
  }
  const DomainId qdom = kernel.CreateDomain({.name = "quarantine"});
  const DramOrg& org = kernel.mc().mapper().org();
  const uint64_t pages_per_group = std::max<uint64_t>(
      1, static_cast<uint64_t>(org.channels) * org.ranks * org.banks * org.columns /
             kLinesPerPage);
  chunk_pages_ = pages_per_group;
  std::vector<uint64_t> reserved;
  for (uint32_t i = 0; i < pages; ++i) {
    auto frame = kernel.allocator().AllocFrame(qdom);
    if (!frame.has_value()) {
      break;
    }
    reserved.push_back(*frame);
  }
  const size_t guard = static_cast<size_t>(pages_per_group);
  if (reserved.size() > 2 * guard) {
    free_.assign(reserved.begin() + static_cast<ptrdiff_t>(guard),
                 reserved.end() - static_cast<ptrdiff_t>(guard));
  }
}

std::vector<uint64_t>* QuarantinePool::PoolFor(DomainId domain) {
  std::vector<uint64_t>& pool = pools_[domain];
  if (pool.empty() && !free_.empty()) {
    // Carve one row-group from the back, preserving order: pop_back hands
    // out exactly the sequence the old shared stack did.
    const size_t take = std::min<size_t>(chunk_pages_, free_.size());
    pool.assign(free_.end() - static_cast<ptrdiff_t>(take), free_.end());
    free_.resize(free_.size() - take);
  }
  return pool.empty() ? nullptr : &pool;
}

bool QuarantinePool::Migrate(HostKernel& kernel, PhysAddr addr) {
  const auto located = kernel.LocatePhys(addr);
  const DomainId domain = located.has_value() ? located->first : kInvalidDomain;
  std::vector<uint64_t>* pool = PoolFor(domain);
  if (pool != nullptr && kernel.MovePageByPhysToFrame(addr, pool->back())) {
    pool->pop_back();
    ++quarantine_migrations_;
    return true;
  }
  if (kernel.MovePageByPhys(addr)) {
    ++overflow_migrations_;
    return true;
  }
  return false;
}

void QuarantinePool::Prune(HostKernel& kernel) {
  for (auto it = pools_.begin(); it != pools_.end();) {
    if (kernel.HasDomain(it->first)) {
      ++it;
      continue;
    }
    free_.insert(free_.end(), it->second.begin(), it->second.end());
    it = pools_.erase(it);
  }
}

size_t QuarantinePool::remaining() const {
  size_t total = free_.size();
  for (const auto& [domain, pool] : pools_) {
    total += pool.size();
  }
  return total;
}

}  // namespace ht
