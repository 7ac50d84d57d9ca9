#include "mc/addrmap.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace ht {
namespace {

DramOrg DefaultOrg() { return DramConfig::SimDefault().org; }

// The division formulas the shift-and-mask mapper replaced: the naive
// reference MapLine and LineOf must match on every line.
DdrCoord RefMapLine(const DramOrg& org, InterleaveScheme scheme, uint64_t line) {
  DdrCoord coord;
  uint64_t l = line;
  switch (scheme) {
    case InterleaveScheme::kBankSequential: {
      coord.column = static_cast<uint32_t>(l % org.columns);
      l /= org.columns;
      coord.row = static_cast<uint32_t>(l % org.rows_per_bank());
      l /= org.rows_per_bank();
      coord.bank = static_cast<uint32_t>(l % org.banks);
      l /= org.banks;
      coord.rank = static_cast<uint32_t>(l % org.ranks);
      l /= org.ranks;
      coord.channel = static_cast<uint32_t>(l);
      break;
    }
    case InterleaveScheme::kCacheLine:
    case InterleaveScheme::kPermutation: {
      coord.channel = static_cast<uint32_t>(l % org.channels);
      l /= org.channels;
      coord.rank = static_cast<uint32_t>(l % org.ranks);
      l /= org.ranks;
      coord.bank = static_cast<uint32_t>(l % org.banks);
      l /= org.banks;
      coord.column = static_cast<uint32_t>(l % org.columns);
      l /= org.columns;
      coord.row = static_cast<uint32_t>(l);
      if (scheme == InterleaveScheme::kPermutation) {
        coord.bank = (coord.bank + coord.row) % org.banks;
      }
      break;
    }
    case InterleaveScheme::kSubarrayIsolated: {
      coord.channel = static_cast<uint32_t>(l % org.channels);
      l /= org.channels;
      coord.rank = static_cast<uint32_t>(l % org.ranks);
      l /= org.ranks;
      coord.bank = static_cast<uint32_t>(l % org.banks);
      l /= org.banks;
      coord.column = static_cast<uint32_t>(l % org.columns);
      l /= org.columns;
      const uint32_t row_within = static_cast<uint32_t>(l % org.rows_per_subarray);
      l /= org.rows_per_subarray;
      const uint32_t subarray = static_cast<uint32_t>(l);
      coord.row = subarray * org.rows_per_subarray + row_within;
      break;
    }
  }
  return coord;
}

uint64_t RefLineOf(const DramOrg& org, InterleaveScheme scheme, const DdrCoord& coord) {
  switch (scheme) {
    case InterleaveScheme::kBankSequential: {
      uint64_t l = coord.channel;
      l = l * org.ranks + coord.rank;
      l = l * org.banks + coord.bank;
      l = l * org.rows_per_bank() + coord.row;
      l = l * org.columns + coord.column;
      return l;
    }
    case InterleaveScheme::kCacheLine:
    case InterleaveScheme::kPermutation: {
      uint32_t bank = coord.bank;
      if (scheme == InterleaveScheme::kPermutation) {
        bank = (coord.bank + org.banks - coord.row % org.banks) % org.banks;
      }
      uint64_t l = coord.row;
      l = l * org.columns + coord.column;
      l = l * org.banks + bank;
      l = l * org.ranks + coord.rank;
      l = l * org.channels + coord.channel;
      return l;
    }
    case InterleaveScheme::kSubarrayIsolated: {
      const uint32_t subarray = org.SubarrayOfRow(coord.row);
      const uint32_t row_within = org.RowWithinSubarray(coord.row);
      uint64_t l = subarray;
      l = l * org.rows_per_subarray + row_within;
      l = l * org.columns + coord.column;
      l = l * org.banks + coord.bank;
      l = l * org.ranks + coord.rank;
      l = l * org.channels + coord.channel;
      return l;
    }
  }
  return 0;
}

constexpr InterleaveScheme kAllSchemes[] = {
    InterleaveScheme::kBankSequential, InterleaveScheme::kCacheLine,
    InterleaveScheme::kPermutation, InterleaveScheme::kSubarrayIsolated};

// Organizations the reference comparison walks line by line.
std::vector<std::pair<std::string, DramOrg>> ReferenceOrgs() {
  std::vector<std::pair<std::string, DramOrg>> orgs;
  orgs.emplace_back("tiny", DramConfig::Tiny().org);
  orgs.emplace_back("default", DefaultOrg());
  DramOrg fuzz = DramConfig::Tiny().org;  // The widest MakeFuzzDramConfig draw.
  fuzz.banks = 4;
  fuzz.subarrays_per_bank = 4;
  fuzz.rows_per_subarray = 32;
  orgs.emplace_back("fuzz", fuzz);
  // Multi-channel, multi-rank: the default banks and columns, with short
  // subarrays to bound the walk.
  for (uint32_t channels : {2u, 4u, 8u}) {
    DramOrg multi = DefaultOrg();
    multi.channels = channels;
    multi.ranks = 2;
    multi.rows_per_subarray = 8;
    orgs.emplace_back(std::to_string(channels) + "ch-2rank", multi);
  }
  return orgs;
}

TEST(AddrMap, MatchesDivisionReferenceOnEveryLine) {
  for (const auto& [name, org] : ReferenceOrgs()) {
    for (InterleaveScheme scheme : kAllSchemes) {
      SCOPED_TRACE(name + " " + ToString(scheme));
      const AddressMapper mapper(org, scheme);
      ASSERT_EQ(mapper.total_lines(), org.total_rows() * org.columns);
      uint64_t mismatches = 0;
      for (uint64_t line = 0; line < mapper.total_lines(); ++line) {
        const DdrCoord coord = mapper.MapLine(line);
        if (coord != RefMapLine(org, scheme, line) || mapper.LineOf(coord) != line ||
            RefLineOf(org, scheme, coord) != line) {
          ADD_FAILURE() << "line " << line;
          if (++mismatches == 10) {
            break;
          }
        }
      }
    }
  }
}

TEST(AddrMapDeathTest, RefusesNonPowerOfTwoGeometry) {
  DramOrg org = DefaultOrg();
  org.channels = 3;
  EXPECT_DEATH(AddressMapper(org, InterleaveScheme::kCacheLine),
               "AddressMapper: unsupported organization: channels = 3;");
  org = DefaultOrg();
  org.columns = 96;
  EXPECT_DEATH(AddressMapper(org, InterleaveScheme::kBankSequential), "columns = 96;");
  org = DefaultOrg();
  org.rows_per_subarray = 0;
  EXPECT_DEATH(AddressMapper(org, InterleaveScheme::kSubarrayIsolated), "rows_per_subarray = 0;");
  for (uint32_t DramOrg::*field : {&DramOrg::ranks, &DramOrg::banks, &DramOrg::subarrays_per_bank}) {
    org = DefaultOrg();
    org.*field = 6;
    EXPECT_DEATH(AddressMapper(org, InterleaveScheme::kPermutation), " = 6; every geometry field");
  }
}

class AddrMapBijectionTest : public ::testing::TestWithParam<InterleaveScheme> {};

TEST_P(AddrMapBijectionTest, MapAndInverseRoundTrip) {
  AddressMapper mapper(DefaultOrg(), GetParam());
  // Sample a spread of lines plus the extremes.
  for (uint64_t line : {uint64_t{0}, uint64_t{1}, uint64_t{63}, uint64_t{64}, uint64_t{1000},
                        mapper.total_lines() / 2, mapper.total_lines() - 1}) {
    const DdrCoord coord = mapper.MapLine(line);
    EXPECT_EQ(mapper.LineOf(coord), line) << ToString(GetParam()) << " line " << line;
  }
}

TEST_P(AddrMapBijectionTest, CoordsStayInBounds) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, GetParam());
  for (uint64_t line = 0; line < 4096; ++line) {
    const DdrCoord coord = mapper.MapLine(line);
    EXPECT_LT(coord.channel, org.channels);
    EXPECT_LT(coord.rank, org.ranks);
    EXPECT_LT(coord.bank, org.banks);
    EXPECT_LT(coord.row, org.rows_per_bank());
    EXPECT_LT(coord.column, org.columns);
  }
}

TEST_P(AddrMapBijectionTest, DenseRangeIsInjective) {
  AddressMapper mapper(DefaultOrg(), GetParam());
  std::set<uint64_t> seen;
  for (uint64_t line = 0; line < 8192; ++line) {
    const DdrCoord coord = mapper.MapLine(line);
    uint64_t key = coord.channel;
    key = key * 64 + coord.rank;
    key = key * 64 + coord.bank;
    key = key * (1ull << 32) + coord.row;
    key = key * 4096 + coord.column;
    EXPECT_TRUE(seen.insert(key).second) << "collision at line " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, AddrMapBijectionTest,
                         ::testing::Values(InterleaveScheme::kBankSequential,
                                           InterleaveScheme::kCacheLine,
                                           InterleaveScheme::kPermutation,
                                           InterleaveScheme::kSubarrayIsolated),
                         [](const auto& param_info) {
                           std::string name = ToString(param_info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(AddrMap, BankSequentialKeepsConsecutiveLinesInOneBank) {
  AddressMapper mapper(DefaultOrg(), InterleaveScheme::kBankSequential);
  const DdrCoord first = mapper.MapLine(0);
  for (uint64_t line = 0; line < DefaultOrg().columns; ++line) {
    const DdrCoord coord = mapper.MapLine(line);
    EXPECT_EQ(coord.bank, first.bank);
    EXPECT_EQ(coord.row, first.row);
    EXPECT_EQ(coord.column, line);
  }
}

TEST(AddrMap, CacheLineSpreadsPageAcrossAllBanks) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kCacheLine);
  std::set<uint32_t> banks;
  for (uint64_t line = 0; line < kLinesPerPage; ++line) {
    banks.insert(mapper.MapLine(line).bank);
  }
  EXPECT_EQ(banks.size(), org.banks);
}

TEST(AddrMap, SubarrayIsolatedSpreadsPageAcrossAllBanks) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kSubarrayIsolated);
  std::set<uint32_t> banks;
  for (uint64_t line = 0; line < kLinesPerPage; ++line) {
    banks.insert(mapper.MapLine(line).bank);
  }
  EXPECT_EQ(banks.size(), org.banks);  // Full interleaving retained (§4.1).
}

TEST(AddrMap, SubarrayIsolatedPinsBandsToSubarrays) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kSubarrayIsolated);
  const uint64_t band = mapper.LinesPerSubarrayBand();
  for (uint32_t s = 0; s < org.subarrays_per_bank; ++s) {
    // Sample lines within band s: all rows must fall in subarray s.
    for (uint64_t offset : {uint64_t{0}, band / 2, band - 1}) {
      const DdrCoord coord = mapper.MapLine(s * band + offset);
      EXPECT_EQ(org.SubarrayOfRow(coord.row), s) << "band " << s << " offset " << offset;
      EXPECT_EQ(mapper.SubarrayBandOfLine(s * band + offset), s);
    }
  }
}

TEST(AddrMap, PermutationShufflesBanksAcrossRows) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kPermutation);
  // The same bank-slot at different rows maps to different banks.
  const uint64_t lines_per_row = static_cast<uint64_t>(org.channels) * org.ranks * org.banks *
                                 org.columns;
  std::set<uint32_t> banks;
  for (uint32_t r = 0; r < org.banks; ++r) {
    banks.insert(mapper.MapLine(r * lines_per_row).bank);
  }
  EXPECT_GT(banks.size(), 1u);
}

TEST(AddrMap, CapacityMatchesOrg) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kCacheLine);
  EXPECT_EQ(mapper.capacity_bytes(), org.capacity_bytes());
  EXPECT_EQ(mapper.total_lines() * kLineBytes, org.capacity_bytes());
}

TEST(AddrMap, AddrOfInvertsMap) {
  AddressMapper mapper(DefaultOrg(), InterleaveScheme::kCacheLine);
  const PhysAddr addr = 12345 * kLineBytes;
  EXPECT_EQ(mapper.AddrOf(mapper.Map(addr)), addr);
}

}  // namespace
}  // namespace ht
