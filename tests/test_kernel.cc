#include "os/kernel.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "common/rng.h"
#include "defense/watchset_defense.h"

namespace ht {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
      : mc_(DramConfig::SimDefault(), McConfig{}),
        alloc_(mc_.mapper().total_lines() / kLinesPerPage),
        kernel_(&mc_, &alloc_) {}

  MemoryController mc_;
  LinearAllocator alloc_;
  HostKernel kernel_;
};

TEST_F(KernelTest, AllocRegionMapsContiguousVa) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 4);
  ASSERT_TRUE(base.has_value());
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(kernel_.Translate(d, *base + p * kPageBytes).has_value());
  }
  EXPECT_FALSE(kernel_.Translate(d, *base + 4 * kPageBytes).has_value());
}

TEST_F(KernelTest, TranslationPreservesPageOffset) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  const auto pa = kernel_.Translate(d, *base + 123);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa % kPageBytes, 123u);
}

TEST_F(KernelTest, DomainsAreDisjoint) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  auto base_a = kernel_.AllocRegion(a, 8);
  auto base_b = kernel_.AllocRegion(b, 8);
  std::set<uint64_t> frames;
  for (uint64_t p = 0; p < 8; ++p) {
    frames.insert(*kernel_.Translate(a, *base_a + p * kPageBytes) / kPageBytes);
    frames.insert(*kernel_.Translate(b, *base_b + p * kPageBytes) / kPageBytes);
  }
  EXPECT_EQ(frames.size(), 16u);
  // Ownership is recorded.
  EXPECT_EQ(kernel_.OwnerOfPhys(*kernel_.Translate(a, *base_a)), a);
  EXPECT_EQ(kernel_.OwnerOfPhys(*kernel_.Translate(b, *base_b)), b);
}

TEST_F(KernelTest, FillAndVerifyClean) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 4);
  kernel_.FillRegion(d, *base, 4);
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 4);
  EXPECT_EQ(result.lines_checked, 4 * kLinesPerPage);
  EXPECT_EQ(result.corrupted_lines, 0u);
}

TEST_F(KernelTest, VerifyDetectsCorruption) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  kernel_.FillRegion(d, *base, 1);
  // Corrupt one line directly in DRAM.
  const PhysAddr pa = *kernel_.Translate(d, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  const uint64_t good = mc_.device(coord.channel)
                            .ReadLine(coord.rank, coord.bank, coord.row, coord.column);
  mc_.device(coord.channel)
      .WriteLine(coord.rank, coord.bank, coord.row, coord.column, good ^ 1);
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 1);
  EXPECT_EQ(result.corrupted_lines, 1u);
  EXPECT_EQ(result.dos_lockups, 0u);  // Not an enclave.
}

TEST_F(KernelTest, IntegrityCheckedEnclaveCorruptionIsDos) {
  const DomainId d = kernel_.CreateDomain(
      {.name = "enclave", .enclave = true, .integrity_checked = true});
  auto base = kernel_.AllocRegion(d, 1);
  kernel_.FillRegion(d, *base, 1);
  const PhysAddr pa = *kernel_.Translate(d, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  mc_.device(coord.channel).WriteLine(coord.rank, coord.bank, coord.row, coord.column, ~0ull);
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 1);
  EXPECT_EQ(result.corrupted_lines, 1u);
  EXPECT_EQ(result.dos_lockups, 1u);
}

TEST_F(KernelTest, NeighborRowAddrsMapToAdjacentRows) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  const PhysAddr pa = *kernel_.Translate(d, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  const auto neighbors = kernel_.NeighborRowAddrs(pa, 2);
  ASSERT_FALSE(neighbors.empty());
  for (PhysAddr n : neighbors) {
    const DdrCoord nc = mc_.mapper().Map(n);
    EXPECT_EQ(nc.channel, coord.channel);
    EXPECT_EQ(nc.rank, coord.rank);
    EXPECT_EQ(nc.bank, coord.bank);
    const uint32_t dist = nc.row > coord.row ? nc.row - coord.row : coord.row - nc.row;
    EXPECT_GE(dist, 1u);
    EXPECT_LE(dist, 2u);
  }
}

TEST_F(KernelTest, NeighborRowAddrsClampAtEdges) {
  // Row 0 has no lower neighbours.
  const PhysAddr pa = 0;  // Maps to row 0 in every scheme.
  const uint32_t blast = 3;
  const auto neighbors = kernel_.NeighborRowAddrs(pa, blast);
  EXPECT_EQ(neighbors.size(), blast);  // Upper side only.
}

TEST_F(KernelTest, MovePagePreservesContentsAndRemaps) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 2);
  kernel_.FillRegion(d, *base, 2);
  const PhysAddr old_pa = *kernel_.Translate(d, *base);
  ASSERT_TRUE(kernel_.MovePage(d, *base));
  const PhysAddr new_pa = *kernel_.Translate(d, *base);
  EXPECT_NE(old_pa / kPageBytes, new_pa / kPageBytes);
  // Contents moved: verification still passes.
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 2);
  EXPECT_EQ(result.corrupted_lines, 0u);
  EXPECT_EQ(kernel_.page_moves(), 1u);
  // Ownership tables updated.
  EXPECT_EQ(kernel_.OwnerOfPhys(new_pa), d);
  EXPECT_EQ(kernel_.OwnerOfPhys(old_pa), kInvalidDomain);
}

TEST_F(KernelTest, MovePageCarriesCorruption) {
  // §4.2 wear-leveling moves data as-is; it must not "heal" flips.
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  kernel_.FillRegion(d, *base, 1);
  const PhysAddr pa = *kernel_.Translate(d, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  const uint64_t good =
      mc_.device(coord.channel).ReadLine(coord.rank, coord.bank, coord.row, coord.column);
  mc_.device(coord.channel).WriteLine(coord.rank, coord.bank, coord.row, coord.column, good ^ 4);
  ASSERT_TRUE(kernel_.MovePage(d, *base));
  EXPECT_EQ(kernel_.VerifyRegion(d, *base, 1).corrupted_lines, 1u);
}

TEST_F(KernelTest, LocatePhysFindsPage) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 3);
  const PhysAddr pa = *kernel_.Translate(d, *base + 2 * kPageBytes + 100);
  const auto located = kernel_.LocatePhys(pa);
  ASSERT_TRUE(located.has_value());
  EXPECT_EQ(located->first, d);
  EXPECT_EQ(located->second, *base + 2 * kPageBytes);
}

TEST_F(KernelTest, MovePageByPhysWorks) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  const PhysAddr pa = *kernel_.Translate(d, *base);
  EXPECT_TRUE(kernel_.MovePageByPhys(pa + 77));
  EXPECT_NE(*kernel_.Translate(d, *base), pa);
  EXPECT_FALSE(kernel_.MovePageByPhys(pa + 77));  // Old frame unmapped now.
}

TEST_F(KernelTest, RowOwnersListsDomainsInRow) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(a, 16);
  const PhysAddr pa = *kernel_.Translate(a, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  const auto owners = kernel_.RowOwners(coord.channel, coord.rank, coord.bank, coord.row);
  ASSERT_FALSE(owners.empty());
  EXPECT_EQ(owners[0], a);
}

TEST_F(KernelTest, PatternValueDependsOnDomainAndAddress) {
  EXPECT_NE(HostKernel::PatternValue(1, 0), HostKernel::PatternValue(2, 0));
  EXPECT_NE(HostKernel::PatternValue(1, 0), HostKernel::PatternValue(1, 64));
  EXPECT_EQ(HostKernel::PatternValue(1, 64), HostKernel::PatternValue(1, 64));
}

TEST_F(KernelTest, TranslatorClosureMatchesTranslate) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  auto translator = kernel_.TranslatorFor(d);
  EXPECT_EQ(translator(*base), kernel_.Translate(d, *base));
  EXPECT_FALSE(translator(0xDEAD0000).has_value());
}

TEST_F(KernelTest, TranslatorMemoRemembersTwoPages) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  const VirtAddr base = *kernel_.AllocRegion(d, 3);
  auto translator = kernel_.TranslatorFor(d);
  const uint64_t start = kernel_.page_table_lookups();
  auto lookups = [&] { return kernel_.page_table_lookups() - start; };
  // A hammer stream alternates two pages: each is looked up once.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(translator(base + 8), kernel_.Translate(d, base + 8));
    EXPECT_EQ(translator(base + kPageBytes + 16), kernel_.Translate(d, base + kPageBytes + 16));
  }
  EXPECT_EQ(lookups(), 2u);
  translator(base + 2 * kPageBytes);  // A third page evicts the older of the two.
  EXPECT_EQ(lookups(), 3u);
  translator(base + kPageBytes);
  EXPECT_EQ(lookups(), 3u);
  translator(base);
  EXPECT_EQ(lookups(), 4u);
  // Faults are never remembered.
  EXPECT_FALSE(translator(base + 3 * kPageBytes).has_value());
  EXPECT_FALSE(translator(base + 3 * kPageBytes).has_value());
  EXPECT_EQ(lookups(), 6u);
  // A remap anywhere drops every memo.
  auto mux = kernel_.MuxTranslator();
  mux(base + kPageBytes);
  EXPECT_EQ(lookups(), 7u);
  ASSERT_TRUE(kernel_.MovePage(d, base + 2 * kPageBytes));
  EXPECT_EQ(translator(base), kernel_.Translate(d, base));
  EXPECT_EQ(mux(base + kPageBytes), kernel_.Translate(d, base + kPageBytes));
  EXPECT_EQ(lookups(), 9u);
}

// Ties the translator memos to HostKernel::Translate under every change to
// the page tables. Each domain keeps a hot page pair that every round
// touches first and last (a, b, a random page, a fault, a, b; the pair
// may change before the last two), so every closure enters the next
// change remembering the pair. Then one change: AllocRegion, MovePage,
// MovePageToFrame or DestroyDomain, mostly of a hot page. A remembered
// page that outlives its mapping shows as a mismatch in the next round.
TEST_F(KernelTest, TranslatorMemosMatchTranslateThroughRemaps) {
  struct Tracked {
    DomainId domain;
    uint64_t pages;           // Pages mapped from the domain's base.
    uint64_t hot[2];          // The hot pair, as page indices.
    std::function<std::optional<PhysAddr>(VirtAddr)> own;  // TranslatorFor.
    std::function<std::optional<PhysAddr>(VirtAddr)> mux;  // Its own MuxTranslator.
  };
  Rng rng(31);
  auto shared_mux = kernel_.MuxTranslator();
  std::vector<Tracked> tracked;
  auto create = [&] {
    const DomainId d = kernel_.CreateDomain({.name = "t"});
    const uint64_t pages = 2 + rng.NextBelow(4);
    ASSERT_TRUE(kernel_.AllocRegion(d, pages).has_value());
    tracked.push_back({d, pages, {0, 1}, kernel_.TranslatorFor(d), kernel_.MuxTranslator()});
  };
  for (int i = 0; i < 4; ++i) {
    create();
  }
  uint64_t checked = 0;
  auto check = [&](Tracked& t, VirtAddr va) {
    const std::optional<PhysAddr> expected = kernel_.Translate(t.domain, va);
    EXPECT_EQ(t.own(va), expected) << "domain " << t.domain << " va " << va;
    EXPECT_EQ(t.mux(va), expected) << "domain " << t.domain << " va " << va;
    EXPECT_EQ(shared_mux(va), expected) << "domain " << t.domain << " va " << va;
    ++checked;
  };
  auto page_va = [](const Tracked& t, uint64_t page) {
    return AddressSpace::BaseFor(t.domain) + page * kPageBytes;
  };
  auto round = [&](Tracked& t) {
    const uint64_t offset = rng.NextBelow(kPageBytes);
    check(t, page_va(t, t.hot[0]) + offset);
    check(t, page_va(t, t.hot[1]) + offset);
    check(t, page_va(t, rng.NextBelow(t.pages)) + offset);
    check(t, page_va(t, t.pages) + offset);  // Past the last region: a fault.
    if (rng.NextBool(0.25)) {
      t.hot[rng.NextBelow(2)] = rng.NextBelow(t.pages);
    }
    check(t, page_va(t, t.hot[0]) + offset);
    check(t, page_va(t, t.hot[1]) + offset);
  };
  uint64_t changes[4] = {};  // AllocRegion, MovePage, MovePageToFrame, DestroyDomain.
  for (int step = 0; step < 3000 && !HasFailure(); ++step) {
    for (Tracked& t : tracked) {
      round(t);
    }
    // A destroyed domain gets the one round above, where every access
    // must fault, and then leaves.
    std::erase_if(tracked, [&](const Tracked& t) { return !kernel_.HasDomain(t.domain); });
    const size_t index = rng.NextBelow(tracked.size());
    Tracked& t = tracked[index];
    const uint64_t page = rng.NextBool(0.75) ? t.hot[rng.NextBelow(2)] : rng.NextBelow(t.pages);
    const uint64_t kind = rng.NextBelow(4);
    ++changes[kind];
    switch (kind) {
      case 0: {
        const uint64_t pages = 1 + rng.NextBelow(2);
        ASSERT_EQ(kernel_.AllocRegion(t.domain, pages), std::optional(page_va(t, t.pages)));
        t.pages += pages;
        break;
      }
      case 1:
        ASSERT_TRUE(kernel_.MovePage(t.domain, page_va(t, page)));
        break;
      case 2:
        ASSERT_TRUE(kernel_.MovePageToFrame(t.domain, page_va(t, page),
                                            *alloc_.AllocFrame(t.domain)));
        break;
      default:
        kernel_.DestroyDomain(t.domain);
        create();  // Invalidates `t`.
        break;
    }
  }
  EXPECT_GE(checked, 50000u);
  for (uint64_t count : changes) {
    EXPECT_GE(count, 600u);
  }
}

// Reference model for the domain table: std::maps plus a mirror
// LinearAllocator fed the same AllocFrame/FreeFrame sequence as the kernel
// (region pages in VA order; MovePage allocates, then frees the old
// frame; DestroyDomain frees in VA-page order), so it knows every frame
// without asking the kernel.
struct DomainModel {
  explicit DomainModel(uint64_t total_frames) : alloc(total_frames) {}

  std::map<DomainId, std::map<VirtAddr, uint64_t>> pages;  // va page -> frame.
  std::map<DomainId, VirtAddr> next_va;
  std::map<uint64_t, std::pair<DomainId, VirtAddr>> frames;
  std::set<DomainId> destroyed;
  LinearAllocator alloc;
};

void ExpectDomainMatches(const HostKernel& kernel, const DomainModel& model, DomainId id) {
  SCOPED_TRACE(testing::Message() << "domain " << id);
  auto it = model.pages.find(id);
  ASSERT_EQ(kernel.HasDomain(id), it != model.pages.end());
  // Probe the domain's own VA window (mapped pages, the page past the last
  // region, an interior line) and the bottom of VA space.
  const VirtAddr base = id == kInvalidDomain ? 0 : AddressSpace::BaseFor(id);
  std::vector<VirtAddr> probes = {base, base + 5 * kLineBytes + 3, 0, kPageBytes + 64};
  if (it != model.pages.end()) {
    probes.push_back(model.next_va.at(id));
    for (const auto& [va_page, frame] : it->second) {
      probes.push_back(va_page + 17 * kLineBytes + 9);
    }
  }
  for (VirtAddr va : probes) {
    std::optional<PhysAddr> expected;
    if (it != model.pages.end()) {
      auto page = it->second.find(va / kPageBytes * kPageBytes);
      if (page != it->second.end()) {
        expected = page->second * kPageBytes + va % kPageBytes;
      }
    }
    EXPECT_EQ(kernel.Translate(id, va), expected) << "va " << va;
  }
}

// Every live domain's pages() walk, element by element: page i of the
// walk is the model's i-th VA page, mapped to the same frame.
void ExpectPagesMatch(const HostKernel& kernel, const DomainModel& model) {
  for (const auto& [id, model_pages] : model.pages) {
    const AddressSpace::Pages pages = kernel.space(id).pages();
    ASSERT_EQ(pages.base, AddressSpace::BaseFor(id));
    ASSERT_EQ(pages.frames.size(), model_pages.size()) << "domain " << id;
    auto expected = model_pages.begin();
    for (size_t i = 0; i < pages.frames.size(); ++i, ++expected) {
      ASSERT_EQ(pages.base + i * kPageBytes, expected->first) << "domain " << id << " page " << i;
      ASSERT_EQ(pages.frames[i], expected->second) << "domain " << id << " page " << i;
    }
  }
}

// Owner and reverse lookup of every frame, one past the last included.
void ExpectFramesMatch(const HostKernel& kernel, const DomainModel& model,
                       uint64_t total_frames) {
  auto mapped = model.frames.begin();
  for (uint64_t frame = 0; frame <= total_frames; ++frame) {
    std::optional<std::pair<DomainId, VirtAddr>> expected;
    if (mapped != model.frames.end() && mapped->first == frame) {
      expected = mapped->second;
      ++mapped;
    }
    const PhysAddr pa = frame * kPageBytes + 200;
    if (kernel.OwnerOfPhys(pa) != (expected ? expected->first : kInvalidDomain) ||
        kernel.LocatePhys(pa) != expected) {
      ADD_FAILURE() << "frame " << frame;
      return;
    }
  }
  EXPECT_EQ(mapped, model.frames.end());
}

TEST_F(KernelTest, DomainTableMatchesMapModelUnderChurn) {
  DomainModel model(alloc_.total_frames());
  Rng rng(2024);
  auto mux = kernel_.MuxTranslator();
  std::vector<DomainId> live;
  DomainId created = 0;
  auto probe_misses = [&](DomainId last_created) {
    // Ids that must miss: never created, 0, kInvalidDomain, and destroyed.
    std::vector<DomainId> misses = {last_created + 1, last_created + 1000, 0, kInvalidDomain};
    if (!model.destroyed.empty()) {
      misses.push_back(*model.destroyed.begin());
      misses.push_back(*model.destroyed.rbegin());
    }
    for (DomainId id : misses) {
      EXPECT_FALSE(kernel_.HasDomain(id)) << id;
      ExpectDomainMatches(kernel_, model, id);
      if (id != kInvalidDomain) {
        EXPECT_FALSE(mux(AddressSpace::BaseFor(id)).has_value()) << id;
      }
    }
    // Below 1 << 36, DomainOfVa wraps to kInvalidDomain.
    EXPECT_EQ(HostKernel::DomainOfVa(kPageBytes), kInvalidDomain);
    EXPECT_FALSE(mux(kPageBytes).has_value());
    EXPECT_FALSE(mux(0).has_value());
  };
  for (int step = 0; step < 6000 && !HasFailure(); ++step) {
    const uint64_t op = rng.NextBelow(10);
    DomainId touched = kInvalidDomain;
    if (live.empty() || op < 4) {
      // Create, with a first region of 1-3 pages.
      const DomainId d = kernel_.CreateDomain({.name = "t" + std::to_string(created)});
      ASSERT_EQ(d, created + 1);
      created = d;
      model.pages[d];
      model.next_va[d] = AddressSpace::BaseFor(d);
      live.push_back(d);
      touched = d;
      if (op < 3) {
        const uint64_t pages = 1 + rng.NextBelow(3);
        ASSERT_EQ(kernel_.AllocRegion(d, pages), std::optional(model.next_va[d]));
        for (uint64_t p = 0; p < pages; ++p) {
          const uint64_t frame = *model.alloc.AllocFrame(d);
          const VirtAddr va = model.next_va[d] + p * kPageBytes;
          model.pages[d][va] = frame;
          model.frames[frame] = {d, va};
        }
        model.next_va[d] += pages * kPageBytes;
      }
    } else if (op < 6) {
      // Grow a live domain by one page.
      const DomainId d = live[rng.NextBelow(live.size())];
      ASSERT_EQ(kernel_.AllocRegion(d, 1), std::optional(model.next_va[d]));
      const uint64_t frame = *model.alloc.AllocFrame(d);
      model.pages[d][model.next_va[d]] = frame;
      model.frames[frame] = {d, model.next_va[d]};
      model.next_va[d] += kPageBytes;
      touched = d;
    } else if (op < 8) {
      // Move a random page of a live domain (or miss on an empty one).
      const DomainId d = live[rng.NextBelow(live.size())];
      auto& pages = model.pages[d];
      touched = d;
      if (pages.empty()) {
        EXPECT_FALSE(kernel_.MovePage(d, model.next_va[d]));
        model.alloc.FreeFrame(d, *model.alloc.AllocFrame(d));  // Alloc, then undo.
      } else {
        auto page = std::next(pages.begin(), static_cast<long>(rng.NextBelow(pages.size())));
        ASSERT_TRUE(kernel_.MovePage(d, page->first + 3 * kLineBytes));
        const uint64_t old_frame = page->second;
        page->second = *model.alloc.AllocFrame(d);
        model.alloc.FreeFrame(d, old_frame);
        model.frames.erase(old_frame);
        model.frames[page->second] = {d, page->first};
      }
    } else {
      // Destroy a random live domain.
      const size_t index = rng.NextBelow(live.size());
      const DomainId d = live[index];
      kernel_.DestroyDomain(d);
      for (const auto& [va_page, frame] : model.pages[d]) {
        model.alloc.FreeFrame(d, frame);
        model.frames.erase(frame);
      }
      model.pages.erase(d);
      model.next_va.erase(d);
      model.destroyed.insert(d);
      live.erase(live.begin() + static_cast<long>(index));
      touched = d;
    }
    ExpectDomainMatches(kernel_, model, touched);
    probe_misses(created);
    ExpectPagesMatch(kernel_, model);
    ExpectFramesMatch(kernel_, model, alloc_.total_frames());
    if (step % 512 == 0) {
      for (DomainId id = 0; id <= created + 1; ++id) {
        ExpectDomainMatches(kernel_, model, id);
      }
    }
  }
  EXPECT_GE(created, 2000u);
  EXPECT_GE(model.destroyed.size(), 500u);
  for (DomainId id = 0; id <= created + 1; ++id) {
    ExpectDomainMatches(kernel_, model, id);
  }
  // Destroying again, or an id never handed out, is a no-op.
  kernel_.DestroyDomain(*model.destroyed.begin());
  kernel_.DestroyDomain(created + 1);
  kernel_.DestroyDomain(kInvalidDomain);
  EXPECT_EQ(kernel_.CreateDomain({.name = "next"}), created + 1);
  EXPECT_THROW(kernel_.spec(*model.destroyed.begin()), std::out_of_range);
  EXPECT_THROW(kernel_.space(0), std::out_of_range);
}

TEST_F(KernelTest, VerifyRegionMatchesPerLineReference) {
  // An unchecked enclave and an integrity-checked one: only the second
  // turns corruption into DoS lockups.
  const DomainId plain = kernel_.CreateDomain({.name = "plain", .enclave = true});
  const DomainId enclave = kernel_.CreateDomain(
      {.name = "enclave", .enclave = true, .integrity_checked = true});
  const VirtAddr plain_base = *kernel_.AllocRegion(plain, 3);
  const VirtAddr enclave_base = *kernel_.AllocRegion(enclave, 3);
  kernel_.FillRegion(plain, plain_base, 3);
  kernel_.FillRegion(enclave, enclave_base, 3);
  ASSERT_TRUE(kernel_.MovePage(enclave, enclave_base + kPageBytes));
  // Corrupt line 37 of the moved page and line 5 of the plain region's
  // last page, in place in DRAM.
  for (const auto& [d, va] : {std::pair{enclave, enclave_base + kPageBytes + 37 * kLineBytes},
                              std::pair{plain, plain_base + 2 * kPageBytes + 5 * kLineBytes}}) {
    const DdrCoord hit = mc_.mapper().Map(*kernel_.Translate(d, va));
    DramDevice& device = mc_.device(hit.channel);
    device.WriteLine(hit.rank, hit.bank, hit.row, hit.column,
                     device.ReadLine(hit.rank, hit.bank, hit.row, hit.column) ^ 0x100);
  }

  // Line by line: translate, device read, golden pattern. One page past
  // each region is unmapped and must be skipped by both.
  auto reference = [&](DomainId d, VirtAddr base, uint64_t pages) {
    VerifyResult r;
    const bool lockup = kernel_.spec(d).enclave && kernel_.spec(d).integrity_checked;
    for (uint64_t line = 0; line < pages * kLinesPerPage; ++line) {
      const VirtAddr va = base + line * kLineBytes;
      const auto pa = kernel_.Translate(d, va);
      if (!pa.has_value()) {
        continue;
      }
      ++r.lines_checked;
      const DdrCoord c = mc_.mapper().Map(*pa);
      if (mc_.device(c.channel).ReadLine(c.rank, c.bank, c.row, c.column) !=
          HostKernel::PatternValue(d, va)) {
        ++r.corrupted_lines;
        r.dos_lockups += lockup ? 1 : 0;
      }
    }
    return r;
  };
  for (const auto& [d, base] : {std::pair{plain, plain_base}, std::pair{enclave, enclave_base}}) {
    SCOPED_TRACE(kernel_.spec(d).name);
    const VerifyResult want = reference(d, base, 4);
    const VerifyResult got = kernel_.VerifyRegion(d, base, 4);
    EXPECT_EQ(got.lines_checked, want.lines_checked);
    EXPECT_EQ(got.corrupted_lines, want.corrupted_lines);
    EXPECT_EQ(got.dos_lockups, want.dos_lockups);
  }
  EXPECT_EQ(kernel_.VerifyRegion(enclave, enclave_base, 4).lines_checked, 3 * kLinesPerPage);
  EXPECT_EQ(kernel_.VerifyRegion(enclave, enclave_base, 4).dos_lockups, 1u);
  EXPECT_EQ(kernel_.VerifyRegion(plain, plain_base, 4).corrupted_lines, 1u);
  EXPECT_EQ(kernel_.VerifyRegion(plain, plain_base, 4).dos_lockups, 0u);
}

using KernelDeathTest = KernelTest;

TEST_F(KernelDeathTest, UnalignedRegionBaseAborts) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  const VirtAddr base = *kernel_.AllocRegion(d, 2);
  WatchSetDefense watch(WatchSetConfig{});
  watch.Attach(&kernel_, nullptr);
  EXPECT_DEATH(kernel_.FillRegion(d, base + kLineBytes, 1),
               "FillRegion: domain 1: base 0x2000000040 is not page-aligned");
  EXPECT_DEATH(kernel_.VerifyRegion(d, base + 8, 1), "VerifyRegion: domain 1: base 0x2000000008");
  EXPECT_DEATH(watch.Watch(d, base + kPageBytes / 2, 1),
               "WatchSetDefense::Watch: domain 1: base 0x2000000800");
}

}  // namespace
}  // namespace ht
