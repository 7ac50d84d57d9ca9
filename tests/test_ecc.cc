// SECDED ECC model tests (Cojocar et al. [12] behaviour: correct 1,
// detect 2, 3+ escape).
#include <gtest/gtest.h>

#include "dram/data_store.h"
#include "dram/device.h"

namespace ht {
namespace {

TEST(EccDataStore, MaskTracksFlipsAndClearsOnWrite) {
  RowDataStore store(/*rows=*/16, 8, 1);
  store.WriteLine(1, 0, 0xAA);
  EXPECT_EQ(store.CorruptionMask(1, 0), 0u);
  store.FlipRandomBits(1, 1);
  uint64_t total_mask = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    total_mask |= store.CorruptionMask(1, c);
  }
  EXPECT_NE(total_mask, 0u);
  // Rewriting every column clears all corruption.
  for (uint32_t c = 0; c < 8; ++c) {
    store.WriteLine(1, c, 0xBB);
    EXPECT_EQ(store.CorruptionMask(1, c), 0u);
  }
}

TEST(EccDataStore, MaskMatchesStoredCorruption) {
  RowDataStore store(/*rows=*/16, 8, 7);
  for (uint32_t c = 0; c < 8; ++c) {
    store.WriteLine(2, c, 0x1234);
  }
  store.FlipRandomBits(2, 3);
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(store.ReadLine(2, c) ^ store.CorruptionMask(2, c), 0x1234u) << "column " << c;
  }
}

class EccDeviceTest : public ::testing::Test {
 protected:
  EccDeviceTest() {
    config_ = DramConfig::Tiny();
    config_.ecc.enabled = true;
  }

  // Hammers row 5 until at least `events` flip events land on row 6.
  void HammerUntilFlips(DramDevice& device, uint64_t events) {
    Cycle t = 0;
    while (device.total_flip_events() < events) {
      const DdrCommand act = DdrCommand::Act(0, 0, 5);
      t = std::max(t + 1, device.EarliestCycle(act));
      ASSERT_EQ(device.Issue(act, t), TimingVerdict::kOk);
      const DdrCommand pre = DdrCommand::Pre(0, 0);
      t = std::max(t + 1, device.EarliestCycle(pre));
      ASSERT_EQ(device.Issue(pre, t), TimingVerdict::kOk);
      ASSERT_LT(t, Cycle{100000000}) << "no flips after bounded hammering";
    }
  }

  DramConfig config_;
};

TEST_F(EccDeviceTest, SingleBitFlipsAreCorrected) {
  config_.disturbance.min_flip_bits = 1;
  config_.disturbance.max_flip_bits = 1;
  DramDevice device(config_, 0);
  for (uint32_t c = 0; c < config_.org.columns; ++c) {
    device.WriteLine(0, 0, 4, c, 0x5555);
    device.WriteLine(0, 0, 6, c, 0x5555);
  }
  HammerUntilFlips(device, 2);
  // Every readback is clean: one flipped bit per victim word, corrected.
  for (uint32_t row : {4u, 6u}) {
    for (uint32_t c = 0; c < config_.org.columns; ++c) {
      EXPECT_EQ(device.ReadLine(0, 0, row, c), 0x5555u) << "row " << row << " col " << c;
    }
  }
  EXPECT_GT(device.ecc_stats().Get("dram.ecc_corrected"), 0u);
  EXPECT_EQ(device.ecc_stats().Get("dram.ecc_escaped"), 0u);
}

TEST_F(EccDeviceTest, SustainedHammeringAccumulatesUncorrectableWords) {
  // Repeated flip events pile multiple bits into the same words; SECDED
  // then detects (2 bits) or silently misses (3+) — the [12] bypass.
  config_.disturbance.min_flip_bits = 4;
  config_.disturbance.max_flip_bits = 4;
  config_.org.columns = 2;  // Few words: collisions certain.
  DramDevice device(config_, 0);
  for (uint32_t c = 0; c < config_.org.columns; ++c) {
    device.WriteLine(0, 0, 4, c, 0x5555);
    device.WriteLine(0, 0, 6, c, 0x5555);
  }
  HammerUntilFlips(device, 8);
  for (uint32_t row : {4u, 6u}) {
    for (uint32_t c = 0; c < config_.org.columns; ++c) {
      device.ReadLine(0, 0, row, c);
    }
  }
  EXPECT_GT(device.ecc_stats().Get("dram.ecc_detected") +
                device.ecc_stats().Get("dram.ecc_escaped"),
            0u);
}

TEST_F(EccDeviceTest, DisabledEccReturnsRawCorruption) {
  config_.ecc.enabled = false;
  config_.disturbance.min_flip_bits = 1;
  config_.disturbance.max_flip_bits = 1;
  DramDevice device(config_, 0);
  for (uint32_t c = 0; c < config_.org.columns; ++c) {
    device.WriteLine(0, 0, 6, c, 0x5555);
    device.WriteLine(0, 0, 4, c, 0x5555);
  }
  HammerUntilFlips(device, 2);
  uint32_t corrupted = 0;
  for (uint32_t row : {4u, 6u}) {
    for (uint32_t c = 0; c < config_.org.columns; ++c) {
      if (device.ReadLine(0, 0, row, c) != 0x5555u) {
        ++corrupted;
      }
    }
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_EQ(device.ecc_stats().Get("dram.ecc_corrected"), 0u);
}

}  // namespace
}  // namespace ht
