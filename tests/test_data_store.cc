#include "dram/data_store.h"

#include <gtest/gtest.h>

#include "dram/device.h"

namespace ht {
namespace {

constexpr uint64_t kRows = 1024;  // Dense row keys [0, kRows).

TEST(RowDataStore, ReadBackWritten) {
  RowDataStore store(kRows, 8, 1);
  store.WriteLine(42, 3, 0xDEAD);
  EXPECT_EQ(store.ReadLine(42, 3), 0xDEADu);
  EXPECT_EQ(store.ReadLine(42, 4), 0u);
}

TEST(RowDataStore, UnwrittenRowsReadZero) {
  RowDataStore store(kRows, 8, 1);
  EXPECT_EQ(store.ReadLine(7, 0), 0u);
  EXPECT_FALSE(store.RowPopulated(7));
}

TEST(RowDataStore, FlipCorruptsPopulatedRow) {
  RowDataStore store(kRows, 8, 99);
  for (uint32_t c = 0; c < 8; ++c) {
    store.WriteLine(1, c, 0);
  }
  const uint32_t applied = store.FlipRandomBits(1, 3);
  EXPECT_EQ(applied, 3u);
  int nonzero = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    if (store.ReadLine(1, c) != 0) {
      ++nonzero;
    }
  }
  EXPECT_GE(nonzero, 1);
}

TEST(RowDataStore, FlipOnEmptyRowReportsZero) {
  RowDataStore store(kRows, 8, 99);
  EXPECT_EQ(store.FlipRandomBits(123, 4), 0u);
  EXPECT_FALSE(store.RowPopulated(123));
}

TEST(RowDataStore, FlipPositionsDeterministicAcrossPopulations) {
  // Flips on row A must land identically whether or not unrelated row B
  // holds data (RNG draws are consumed consistently).
  RowDataStore a(kRows, 8, 5);
  RowDataStore b(kRows, 8, 5);
  for (uint32_t c = 0; c < 8; ++c) {
    a.WriteLine(1, c, 0);
    b.WriteLine(1, c, 0);
  }
  a.FlipRandomBits(999, 2);  // Row 999 empty in a...
  b.WriteLine(999, 0, 7);    // ...but populated in b.
  b.FlipRandomBits(999, 2);
  a.FlipRandomBits(1, 2);
  b.FlipRandomBits(1, 2);
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(a.ReadLine(1, c), b.ReadLine(1, c)) << "column " << c;
  }
}

TEST(RowDataStore, PopulatedRowsCounted) {
  RowDataStore store(kRows, 8, 1);
  EXPECT_EQ(store.populated_rows(), 0u);
  store.WriteLine(1, 0, 1);
  store.WriteLine(2, 0, 1);
  store.WriteLine(1, 5, 1);
  EXPECT_EQ(store.populated_rows(), 2u);
}

TEST(RowDataStore, DoubleFlipRestores) {
  // XOR semantics: flipping the same deterministic positions twice with
  // identical RNG state undoes the corruption.
  RowDataStore a(kRows, 4, 7);
  a.WriteLine(1, 0, 0x55);
  a.WriteLine(1, 1, 0x55);
  a.WriteLine(1, 2, 0x55);
  a.WriteLine(1, 3, 0x55);
  RowDataStore b(kRows, 4, 7);
  b.WriteLine(1, 0, 0x55);
  b.WriteLine(1, 1, 0x55);
  b.WriteLine(1, 2, 0x55);
  b.WriteLine(1, 3, 0x55);
  a.FlipRandomBits(1, 1);
  b.FlipRandomBits(1, 1);
  // Same seed, same draws: a and b hold identical corrupted data.
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(a.ReadLine(1, c), b.ReadLine(1, c));
  }
}

TEST(RowDataStore, FirstAndLastDenseKeys) {
  RowDataStore store(kRows, 8, 3);
  store.WriteLine(0, 0, 0x11);
  store.WriteLine(kRows - 1, 7, 0x22);
  EXPECT_EQ(store.ReadLine(0, 0), 0x11u);
  EXPECT_EQ(store.ReadLine(kRows - 1, 7), 0x22u);
  EXPECT_EQ(store.ReadLine(kRows - 1, 0), 0u);
  EXPECT_TRUE(store.RowPopulated(0));
  EXPECT_TRUE(store.RowPopulated(kRows - 1));
  EXPECT_FALSE(store.RowPopulated(1));
  EXPECT_FALSE(store.RowPopulated(kRows - 2));
  EXPECT_EQ(store.populated_rows(), 2u);
  EXPECT_EQ(store.FlipRandomBits(kRows - 1, 2), 2u);
  EXPECT_EQ(store.FlipRandomBits(kRows - 2, 2), 0u);
}

TEST(RowDataStoreDeathTest, KeyPastTheTableAborts) {
  RowDataStore store(kRows, 8, 3);
  EXPECT_DEATH(store.WriteLine(kRows, 0, 1), "row key 1024 outside the 1024-row table");
  EXPECT_DEATH(store.ReadLine(kRows, 0), "row key 1024 outside");
}

TEST(RowDataStore, RewriteClearsCorruptionAfterCleanWrites) {
  // Writes skip the corruption erase while nothing is corrupt; once a flip
  // lands, a rewrite must still clear that word's corruption.
  RowDataStore store(kRows, 8, 11);
  for (uint32_t c = 0; c < 8; ++c) {
    store.WriteLine(5, c, 0xF0);
    store.WriteLine(6, c, 0xF0);
  }
  ASSERT_EQ(store.FlipRandomBits(5, 4), 4u);
  ASSERT_EQ(store.FlipRandomBits(6, 1), 1u);
  uint64_t corrupt = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    corrupt |= store.CorruptionMask(5, c);
    store.WriteLine(5, c, 0x0F);
  }
  ASSERT_NE(corrupt, 0u);
  uint64_t row6 = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(store.CorruptionMask(5, c), 0u) << "column " << c;
    EXPECT_EQ(store.ReadLine(5, c), 0x0Fu) << "column " << c;
    row6 |= store.CorruptionMask(6, c);
  }
  EXPECT_NE(row6, 0u);  // Only the rewritten row is clean again.
}

TEST(RowDataStore, FlipRngIndependentOfWhetherTheFirstRowHoldsData) {
  // Same seed; the first flip hits an empty row in `a` and a populated row
  // in `b`. Both consume the same draws, so the next flip lands
  // identically.
  RowDataStore a(kRows, 8, 21);
  RowDataStore b(kRows, 8, 21);
  for (uint32_t c = 0; c < 8; ++c) {
    a.WriteLine(kRows - 1, c, 0x5A);
    b.WriteLine(kRows - 1, c, 0x5A);
    b.WriteLine(0, c, 0x5A);
  }
  EXPECT_EQ(a.FlipRandomBits(0, 3), 0u);
  EXPECT_EQ(b.FlipRandomBits(0, 3), 3u);
  a.FlipRandomBits(kRows - 1, 3);
  b.FlipRandomBits(kRows - 1, 3);
  uint64_t corrupt = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(a.ReadLine(kRows - 1, c), b.ReadLine(kRows - 1, c)) << "column " << c;
    EXPECT_EQ(a.CorruptionMask(kRows - 1, c), b.CorruptionMask(kRows - 1, c)) << "column " << c;
    corrupt |= a.CorruptionMask(kRows - 1, c);
  }
  EXPECT_NE(corrupt, 0u);
}

TEST(RowDataStore, DeviceRowKeysCoverEveryBankRowDistinctly) {
  // The device's dense key spans ranks x banks x rows: the first and last
  // row of every bank are distinct slots.
  DramConfig config = DramConfig::Tiny();
  config.org.ranks = 2;
  DramDevice device(config, 0);
  const uint32_t last_row = config.org.rows_per_bank() - 1;
  const uint32_t last_column = config.org.columns - 1;
  auto tag = [](uint32_t rank, uint32_t bank, uint32_t row) {
    return (uint64_t{rank} << 40) | (uint64_t{bank} << 20) | row | 1;
  };
  for (uint32_t rank = 0; rank < config.org.ranks; ++rank) {
    for (uint32_t bank = 0; bank < config.org.banks; ++bank) {
      for (uint32_t row : {0u, last_row}) {
        device.WriteLine(rank, bank, row, last_column, tag(rank, bank, row));
      }
    }
  }
  for (uint32_t rank = 0; rank < config.org.ranks; ++rank) {
    for (uint32_t bank = 0; bank < config.org.banks; ++bank) {
      for (uint32_t row : {0u, last_row}) {
        EXPECT_EQ(device.ReadLine(rank, bank, row, last_column), tag(rank, bank, row))
            << rank << "/" << bank << "/" << row;
        EXPECT_EQ(device.ReadLine(rank, bank, row, 0), 0u);
      }
      EXPECT_EQ(device.ReadLine(rank, bank, 1, last_column), 0u);
    }
  }
}

}  // namespace
}  // namespace ht
