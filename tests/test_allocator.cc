#include "os/allocator.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace ht {
namespace {

DramOrg Org() { return DramConfig::SimDefault().org; }

TEST(LinearAllocator, UniqueFramesUntilExhaustion) {
  LinearAllocator alloc(8);
  std::set<uint64_t> frames;
  for (int i = 0; i < 8; ++i) {
    auto frame = alloc.AllocFrame(1);
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frames.insert(*frame).second);
  }
  EXPECT_FALSE(alloc.AllocFrame(1).has_value());
}

TEST(LinearAllocator, FreedFramesReusable) {
  LinearAllocator alloc(2);
  auto a = alloc.AllocFrame(1);
  auto b = alloc.AllocFrame(1);
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(alloc.AllocFrame(1).has_value());
  alloc.FreeFrame(1, *a);
  auto c = alloc.AllocFrame(2);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, *a);
}

TEST(BankAware, InfeasibleUnderInterleaving) {
  AddressMapper mapper(Org(), InterleaveScheme::kCacheLine);
  BankAwareAllocator alloc(mapper);
  EXPECT_FALSE(alloc.isolation_feasible());
  EXPECT_FALSE(alloc.AllocFrame(1).has_value());  // Refuses rather than lies.
}

TEST(BankAware, ConfinesDomainsToDistinctBanks) {
  AddressMapper mapper(Org(), InterleaveScheme::kBankSequential);
  BankAwareAllocator alloc(mapper);
  ASSERT_TRUE(alloc.isolation_feasible());
  for (DomainId d = 1; d <= 3; ++d) {
    for (int i = 0; i < 4; ++i) {
      auto frame = alloc.AllocFrame(d);
      ASSERT_TRUE(frame.has_value());
      // Every line of the frame maps to the domain's bank.
      const auto bank = alloc.BankOf(d);
      ASSERT_TRUE(bank.has_value());
      for (uint64_t l = *frame * kLinesPerPage; l < (*frame + 1) * kLinesPerPage; ++l) {
        const DdrCoord coord = mapper.MapLine(l);
        const uint32_t flat =
            (coord.channel * Org().ranks + coord.rank) * Org().banks + coord.bank;
        EXPECT_EQ(flat, *bank);
      }
    }
  }
  // Distinct domains, distinct banks.
  EXPECT_NE(*alloc.BankOf(1), *alloc.BankOf(2));
  EXPECT_NE(*alloc.BankOf(2), *alloc.BankOf(3));
}

TEST(BankAware, DomainPoolExhaustsIndependently) {
  AddressMapper mapper(Org(), InterleaveScheme::kBankSequential);
  BankAwareAllocator alloc(mapper);
  const uint64_t per_bank = alloc.total_frames() / Org().total_banks();
  for (uint64_t i = 0; i < per_bank; ++i) {
    ASSERT_TRUE(alloc.AllocFrame(1).has_value());
  }
  EXPECT_FALSE(alloc.AllocFrame(1).has_value());
  EXPECT_TRUE(alloc.AllocFrame(2).has_value());  // Other banks untouched.
}

TEST(GuardRows, WastesFramesProportionalToBlast) {
  AddressMapper mapper(Org(), InterleaveScheme::kCacheLine);
  GuardRowAllocator small(mapper, 4, 1);
  GuardRowAllocator large(mapper, 4, 8);
  EXPECT_TRUE(small.isolation_feasible());
  EXPECT_TRUE(large.isolation_feasible());
  EXPECT_GT(large.wasted_frames(), small.wasted_frames());
  EXPECT_GT(small.wasted_frames(), 0u);
}

TEST(GuardRows, DomainsNeverOwnAdjacentRows) {
  AddressMapper mapper(Org(), InterleaveScheme::kCacheLine);
  const uint32_t blast = 2;
  GuardRowAllocator alloc(mapper, 2, blast);
  // Allocate everything for two domains and collect their rows.
  std::set<uint32_t> rows1;
  std::set<uint32_t> rows2;
  while (auto frame = alloc.AllocFrame(1)) {
    for (uint64_t l = *frame * kLinesPerPage; l < (*frame + 1) * kLinesPerPage; ++l) {
      rows1.insert(mapper.MapLine(l).row);
    }
  }
  while (auto frame = alloc.AllocFrame(2)) {
    for (uint64_t l = *frame * kLinesPerPage; l < (*frame + 1) * kLinesPerPage; ++l) {
      rows2.insert(mapper.MapLine(l).row);
    }
  }
  ASSERT_FALSE(rows1.empty());
  ASSERT_FALSE(rows2.empty());
  // Minimum distance between the two domains' rows exceeds the blast radius.
  for (uint32_t r1 : rows1) {
    EXPECT_FALSE(rows2.contains(r1));
    for (uint32_t d = 1; d <= blast; ++d) {
      EXPECT_FALSE(rows2.contains(r1 + d)) << "rows " << r1 << " and " << r1 + d;
      if (r1 >= d) {
        EXPECT_FALSE(rows2.contains(r1 - d));
      }
    }
  }
}

TEST(GuardRows, InfeasibleWhenGuardsExceedRows) {
  DramOrg tiny = DramConfig::Tiny().org;
  AddressMapper mapper(tiny, InterleaveScheme::kCacheLine);
  GuardRowAllocator alloc(mapper, 16, 8);  // 15 gaps * 8 rows > 32 rows.
  EXPECT_FALSE(alloc.isolation_feasible());
}

TEST(SubarrayAware, InfeasibleWithoutIsolatedInterleaving) {
  AddressMapper mapper(Org(), InterleaveScheme::kCacheLine);
  SubarrayAwareAllocator alloc(mapper);
  EXPECT_FALSE(alloc.isolation_feasible());
  EXPECT_FALSE(alloc.AllocFrame(1).has_value());
}

TEST(SubarrayAware, DomainsConfinedToTheirSubarrayGroup) {
  AddressMapper mapper(Org(), InterleaveScheme::kSubarrayIsolated);
  SubarrayAwareAllocator alloc(mapper);
  ASSERT_TRUE(alloc.isolation_feasible());
  for (DomainId d = 1; d <= 4; ++d) {
    for (int i = 0; i < 8; ++i) {
      auto frame = alloc.AllocFrame(d);
      ASSERT_TRUE(frame.has_value());
      const auto group = alloc.DomainGroup(d);
      ASSERT_TRUE(group.has_value());
      for (uint64_t l = *frame * kLinesPerPage; l < (*frame + 1) * kLinesPerPage; ++l) {
        EXPECT_EQ(Org().SubarrayOfRow(mapper.MapLine(l).row), *group);
      }
    }
  }
  EXPECT_NE(*alloc.DomainGroup(1), *alloc.DomainGroup(2));
  EXPECT_EQ(alloc.domains_sharing_groups(), 0u);
}

TEST(SubarrayAware, NoCapacityWaste) {
  AddressMapper mapper(Org(), InterleaveScheme::kSubarrayIsolated);
  SubarrayAwareAllocator alloc(mapper);
  EXPECT_EQ(alloc.wasted_frames(), 0u);
  // All frames reachable: groups * frames_per_band == total.
  uint64_t allocated = 0;
  for (DomainId d = 1; d <= Org().subarrays_per_bank; ++d) {
    while (alloc.AllocFrame(d).has_value()) {
      ++allocated;
    }
  }
  EXPECT_EQ(allocated, alloc.total_frames());
}

TEST(SubarrayAware, MoreDomainsThanGroupsShare) {
  AddressMapper mapper(Org(), InterleaveScheme::kSubarrayIsolated);
  SubarrayAwareAllocator alloc(mapper);
  const uint32_t groups = Org().subarrays_per_bank;
  for (DomainId d = 1; d <= groups + 2; ++d) {
    ASSERT_TRUE(alloc.AllocFrame(d).has_value());
  }
  EXPECT_EQ(alloc.domains_sharing_groups(), 2u);
}

TEST(SubarrayAware, FreeAndReallocWithinGroup) {
  AddressMapper mapper(Org(), InterleaveScheme::kSubarrayIsolated);
  SubarrayAwareAllocator alloc(mapper);
  auto frame = alloc.AllocFrame(1);
  ASSERT_TRUE(frame.has_value());
  alloc.FreeFrame(1, *frame);
  auto again = alloc.AllocFrame(1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *frame);
}


// --- Exact frame sequences ---------------------------------------------------
//
// One Alloc/Free script per policy, pinned frame by frame: which pool a
// domain gets (round-robin on its first allocation), last-freed-first
// reuse, ascending hand-out of unused frames, and a pool running dry.

// 32 frames: 2 banks x 16 rows x 64 columns, so under bank-sequential
// every frame is one row of one bank and under cache-line every row index
// holds two frames.
DramOrg SmallOrg() {
  DramOrg org;
  org.banks = 2;
  org.subarrays_per_bank = 4;
  org.rows_per_subarray = 4;
  org.columns = 64;
  return org;
}

// A step allocates for `domain`, or, with `free_of` set, frees back to
// `domain` the frame that step `free_of` returned.
struct Step {
  DomainId domain;
  int free_of = -1;
};

// Domains 1-3 allocate twice each, domains 1 and 2 free one frame each and
// domains 3, 1 and 2 allocate again, domains 4 and 5 arrive, domain 1
// allocates 14 more times (its pool runs dry), then frees two frames and
// allocates three times.
std::vector<Step> Script() {
  std::vector<Step> script = {{1}, {2}, {3}, {1}, {2}, {3}, {1, 0}, {2, 4},
                              {3}, {1}, {2}, {4}, {5}};
  script.insert(script.end(), 14, Step{1});
  script.insert(script.end(), {{1, 3}, {1, 9}, {1}, {1}, {1}});
  return script;
}

// Replays `script`: each step's frame (-1 when the allocation is refused;
// a free step records the frame it returned).
std::vector<int64_t> Replay(FrameAllocator& alloc, const std::vector<Step>& script) {
  std::vector<int64_t> out;
  for (const Step& step : script) {
    if (step.free_of >= 0) {
      const int64_t frame = out[static_cast<size_t>(step.free_of)];
      alloc.FreeFrame(step.domain, static_cast<uint64_t>(frame));
      out.push_back(frame);
    } else {
      const std::optional<uint64_t> frame = alloc.AllocFrame(step.domain);
      out.push_back(frame.has_value() ? static_cast<int64_t>(*frame) : -1);
    }
  }
  return out;
}

TEST(FrameSequence, Linear) {
  LinearAllocator alloc(12);
  EXPECT_EQ(Replay(alloc, Script()),
            (std::vector<int64_t>{0,  1,  2,  3,  4,  5,  0,  4,  4,  0,  6,  7,  8,  9,  10, 11,
                                  -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 3,  0,  0,  3,  -1}));
}

TEST(FrameSequence, BankAwareUnderBankSequential) {
  AddressMapper mapper(SmallOrg(), InterleaveScheme::kBankSequential);
  BankAwareAllocator alloc(mapper);
  EXPECT_EQ(Replay(alloc, Script()),
            (std::vector<int64_t>{0,  16, 1,  2,  17, 3,  0,  17, 0,  4,  17, 18, 5,  6,  7,  8,
                                  9,  10, 11, 12, 13, 14, 15, -1, -1, -1, -1, 2,  4,  4,  2,  -1}));
  EXPECT_EQ(alloc.BankOf(1), 0u);
  EXPECT_EQ(alloc.BankOf(2), 1u);
  EXPECT_EQ(alloc.BankOf(5), 0u);
}

TEST(FrameSequence, GuardRowsUnderCacheLine) {
  // Slots own rows {0,1}, {4,5}, {8,9} and {12,13}: frames 0-3, 8-11,
  // 16-19 and 24-27.
  AddressMapper mapper(SmallOrg(), InterleaveScheme::kCacheLine);
  GuardRowAllocator alloc(mapper, 4, 2);
  EXPECT_EQ(Replay(alloc, Script()),
            (std::vector<int64_t>{0,  8,  16, 1,  9,  17, 0,  9,  18, 0,  9,  24, 2,  3,  -1, -1,
                                  -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1,  0,  0,  1,  -1}));
  EXPECT_EQ(alloc.wasted_frames(), 16u);
  EXPECT_EQ(alloc.total_frames(), 32u);
}

TEST(FrameSequence, GuardRowsUnderBankSequential) {
  // Each slot's rows lie in both banks, so its frames form two runs: slot 0
  // owns frames 0, 1 (bank 0) and 16, 17 (bank 1).
  AddressMapper mapper(SmallOrg(), InterleaveScheme::kBankSequential);
  GuardRowAllocator alloc(mapper, 4, 2);
  EXPECT_EQ(Replay(alloc, Script()),
            (std::vector<int64_t>{0,  4,  8,  1,  5,  9,  0,  5,  24, 0,  5,  12, 16, 17, -1, -1,
                                  -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1,  0,  0,  1,  -1}));
  EXPECT_EQ(alloc.wasted_frames(), 16u);
}

TEST(FrameSequence, SubarrayAwareUnderSubarrayIsolated) {
  // Four groups of eight frames; domain 5 shares domain 1's group.
  AddressMapper mapper(SmallOrg(), InterleaveScheme::kSubarrayIsolated);
  SubarrayAwareAllocator alloc(mapper);
  EXPECT_EQ(Replay(alloc, Script()),
            (std::vector<int64_t>{0,  8,  16, 1,  9,  17, 0,  9,  18, 0,  9,  24, 2,  3,  4,  5,
                                  6,  7,  -1, -1, -1, -1, -1, -1, -1, -1, -1, 1,  0,  0,  1,  -1}));
  EXPECT_EQ(alloc.DomainGroup(4), 3u);
  EXPECT_EQ(alloc.DomainGroup(5), 0u);
  EXPECT_EQ(alloc.domains_sharing_groups(), 1u);
}

}  // namespace
}  // namespace ht
