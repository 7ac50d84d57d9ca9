// The model host OS / hypervisor: trust domains, page tables, frame
// ownership, golden-pattern memory verification, page migration (the
// §4.2 "ACT wear-leveling" building block), neighbour-row computation
// from mapping knowledge [11], and the enclave registry (§4.4).
#ifndef HAMMERTIME_SRC_OS_KERNEL_H_
#define HAMMERTIME_SRC_OS_KERNEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mc/controller.h"
#include "os/address_space.h"
#include "os/allocator.h"

namespace ht {

struct DomainSpec {
  std::string name;
  bool enclave = false;
  bool integrity_checked = false;  // §4.4: checked enclaves turn flips
                                   // into DoS instead of corruption.
};

// Result of verifying golden-patterned memory.
struct VerifyResult {
  uint64_t lines_checked = 0;
  uint64_t corrupted_lines = 0;
  uint64_t dos_lockups = 0;  // Corrupted lines in integrity-checked enclaves.
};

// Attribution of DRAM flip events to trust domains.
struct FlipAttribution {
  uint64_t total_flips = 0;
  uint64_t cross_domain = 0;  // Victim row holds another domain's data.
  uint64_t intra_domain = 0;  // Victim row belongs to the aggressor domain.
  uint64_t unattributed = 0;  // Victim row unallocated.
  uint64_t enclave_victims = 0;
};

class HostKernel {
 public:
  HostKernel(MemoryController* mc, FrameAllocator* allocator);

  // --- Domains & memory ----------------------------------------------------

  DomainId CreateDomain(const DomainSpec& spec);
  // spec() and space() throw std::out_of_range for a domain that is not
  // live (never created, or destroyed).
  // The page table is read-only outside the kernel: every remap goes
  // through a kernel call that keeps the translator memos valid.
  const DomainSpec& spec(DomainId domain) const { return Live(domain).spec; }
  const AddressSpace& space(DomainId domain) const { return Live(domain).space; }
  bool HasDomain(DomainId domain) const {
    return domain < domains_.size() && domains_[domain].live;
  }

  // Tears down a domain: unmaps every page in VA order (the allocator's
  // free list sees that release sequence), returns frames to the pool,
  // and drops the domain's fill records from verification.
  // Domain IDs are never reused; freed frames are.
  void DestroyDomain(DomainId domain);

  // Allocates `pages` contiguous-VA pages; returns the base VA, or nullopt
  // when the allocator's pool for this domain is exhausted.
  std::optional<VirtAddr> AllocRegion(DomainId domain, uint64_t pages);

  // Misses for a domain that is not live: its slot, if any, holds an
  // empty address space.
  std::optional<PhysAddr> Translate(DomainId domain, VirtAddr va) const {
    if (domain >= domains_.size()) {
      return std::nullopt;
    }
    return domains_[domain].space.Translate(va);
  }

  // A translation closure suitable for Core::set_translate. Like
  // MuxTranslator, it remembers the last two pages it resolved (a hammer
  // stream alternates two aggressor pages), so most calls skip the page
  // table; the memo is dropped whenever a page is remapped or unmapped.
  std::function<std::optional<PhysAddr>(VirtAddr)> TranslatorFor(DomainId domain);

  // Domain encoded in a namespaced VA ((domain+1) << 36 | offset) — the
  // inverse of AddressSpace::BaseFor. Does not check the domain exists.
  static DomainId DomainOfVa(VirtAddr va) { return static_cast<DomainId>((va >> 36) - 1); }

  // A translation closure that recovers the domain from the VA itself,
  // so one core can multiplex streams from many tenants (cloud mode runs
  // thousands of domains on a handful of cores). Translations against
  // destroyed domains miss, like a real stale mapping.
  std::function<std::optional<PhysAddr>(VirtAddr)> MuxTranslator();

  // Page-table lookups the translator closures made: the translations
  // their memos could not answer. An exact work counter, kept out of
  // stats() so reports do not change.
  uint64_t page_table_lookups() const { return page_table_lookups_; }

  DomainId OwnerOfPhys(PhysAddr addr) const;

  // --- Golden data ----------------------------------------------------------

  // Deterministic pattern word for a domain's line (self-verifying data).
  static uint64_t PatternValue(DomainId domain, VirtAddr va_line);

  // Writes the golden pattern into every line of the region, directly to
  // DRAM (setup-time, no timing charged). `base` must be page-aligned (as
  // AllocRegion returns it): the region is translated once per page.
  void FillRegion(DomainId domain, VirtAddr base, uint64_t pages);

  // Re-reads a filled region and counts corrupted lines. `base` must be
  // page-aligned, as for FillRegion.
  VerifyResult VerifyRegion(DomainId domain, VirtAddr base, uint64_t pages) const;

  // Aborts, naming `caller`, the domain and the base, unless `base` is
  // page-aligned. Region walks that translate once per page call it.
  static void RequirePageAligned(const char* caller, DomainId domain, VirtAddr base);

  // Verifies every region ever filled.
  VerifyResult VerifyAll() const;

  // --- Defense building blocks ----------------------------------------------

  // Physical line addresses of the rows adjacent (logical ±1..blast, same
  // bank) to the row containing `addr` — computed from the MC's known
  // physical→DDR mapping, the §2.1/[11] technique.
  std::vector<PhysAddr> NeighborRowAddrs(PhysAddr addr, uint32_t blast) const;

  // Wear-leveling page migration (§4.2): moves the page at `va_page` to a
  // freshly allocated frame, copying contents (corruption travels with the
  // data, as with a real uncore move).
  bool MovePage(DomainId domain, VirtAddr va_page);
  uint64_t page_moves() const { return page_moves_; }

  // Reverse lookup: which (domain, va_page) currently maps the frame of
  // `addr`. Lets an interrupt handler act on a raw physical address.
  std::optional<std::pair<DomainId, VirtAddr>> LocatePhys(PhysAddr addr) const;

  // MovePage for a physical address (frequency-centric wear-leveling on
  // the ACT-interrupt trigger address).
  bool MovePageByPhys(PhysAddr addr);

  // MovePage into a caller-chosen destination frame (e.g. a quarantine
  // pool whose neighbouring rows hold no victim data). The caller must
  // own `new_frame` (reserved via the allocator); the old frame returns
  // to the general pool.
  bool MovePageToFrame(DomainId domain, VirtAddr va_page, uint64_t new_frame);
  bool MovePageByPhysToFrame(PhysAddr addr, uint64_t new_frame);

  // --- Flip attribution ------------------------------------------------------

  // Classifies all flip events recorded by the devices so far.
  FlipAttribution AttributeFlips() const;

  // Domains owning any line of a (channel, rank, bank, logical row).
  std::vector<DomainId> RowOwners(uint32_t channel, uint32_t rank, uint32_t bank,
                                  uint32_t row) const;

  MemoryController& mc() { return *mc_; }
  FrameAllocator& allocator() { return *allocator_; }
  StatSet& stats() { return stats_; }

  // Attach (or detach with nullptr) a trace buffer. Kernel services have
  // no cycle argument, so `clock` points at the simulation clock (the
  // System's now) to stamp PAGE_MOVE events.
  void set_trace(TraceBuffer* trace, const Cycle* clock) {
    trace_ = trace;
    trace_clock_ = clock;
  }

 private:
  struct Region {
    DomainId domain;
    VirtAddr base;
    uint64_t pages;
  };

  // One slot per DomainId ever created, indexed by the id. Ids are
  // sequential from 1 and never reused, so slot 0 never goes live and the
  // next id is the table size. A destroyed domain's slot stays, not live
  // and with an empty address space. AllocRegion bumps space.end_va().
  struct Domain {
    DomainSpec spec;
    AddressSpace space;
    bool live = false;
  };

  // A translator closure's memo: the last two pages it resolved, most
  // recent first. Entries are valid while map_generation_ is unchanged.
  // Only MovePageToFrame and DestroyDomain change or drop an existing
  // mapping, and both bump it; AllocRegion maps fresh VAs, which no
  // entry can hold, and misses are never remembered.
  struct PageMemo {
    static constexpr VirtAddr kNoPage = ~VirtAddr{0};  // Never page-aligned.
    uint64_t generation = 0;
    VirtAddr va_page[2] = {kNoPage, kNoPage};
    PhysAddr pa_page[2] = {0, 0};
  };

  std::optional<PhysAddr> MemoTranslate(PageMemo& memo, DomainId domain, VirtAddr va) {
    const VirtAddr va_page = va & ~(kPageBytes - 1);
    if (memo.generation != map_generation_) {
      memo = PageMemo{.generation = map_generation_};
    } else if (va_page == memo.va_page[0]) {
      return memo.pa_page[0] + (va - va_page);
    } else if (va_page == memo.va_page[1]) {
      std::swap(memo.va_page[0], memo.va_page[1]);
      std::swap(memo.pa_page[0], memo.pa_page[1]);
      return memo.pa_page[0] + (va - va_page);
    }
    ++page_table_lookups_;
    const std::optional<PhysAddr> pa = Translate(domain, va);
    if (pa.has_value()) {
      memo.va_page[1] = memo.va_page[0];
      memo.pa_page[1] = memo.pa_page[0];
      memo.va_page[0] = va_page;
      memo.pa_page[0] = *pa - (va - va_page);
    }
    return pa;
  }

  const Domain& Live(DomainId domain) const;
  Domain& Live(DomainId domain) {
    return const_cast<Domain&>(std::as_const(*this).Live(domain));
  }

  void SetFrameVa(uint64_t frame, VirtAddr va_page);
  void WriteLineToDram(PhysAddr pa, uint64_t value);
  uint64_t ReadLineFromDram(PhysAddr pa) const;

  MemoryController* mc_;
  FrameAllocator* allocator_;
  std::vector<Domain> domains_;
  // The reverse page table: frame -> VA page, 0 if unmapped (VAs are >=
  // 1 << 36), owner = DomainOfVa. It grows to the highest frame mapped, so
  // a run on low frames does not pay 8 B for every frame of DRAM.
  std::vector<VirtAddr> frame_va_;
  std::vector<Region> filled_regions_;
  uint64_t page_moves_ = 0;
  uint64_t map_generation_ = 0;  // Bumped when a mapping changes or goes.
  uint64_t page_table_lookups_ = 0;
  StatSet stats_;
  TraceBuffer* trace_ = nullptr;
  const Cycle* trace_clock_ = nullptr;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_OS_KERNEL_H_
