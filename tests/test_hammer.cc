#include "attack/hammer.h"

#include <algorithm>
#include <gtest/gtest.h>

namespace ht {
namespace {

TEST(HammerStream, AlternatesLoadAndFlushPerAggressor) {
  HammerConfig config;
  config.aggressors = {0x1000, 0x2000};
  HammerStream stream(config);
  const CoreOp op1 = stream.Next();
  const CoreOp op2 = stream.Next();
  const CoreOp op3 = stream.Next();
  const CoreOp op4 = stream.Next();
  EXPECT_EQ(op1.kind, CoreOpKind::kLoad);
  EXPECT_EQ(op1.va, 0x1000u);
  EXPECT_EQ(op2.kind, CoreOpKind::kFlush);
  EXPECT_EQ(op2.va, 0x1000u);
  EXPECT_EQ(op3.kind, CoreOpKind::kLoad);
  EXPECT_EQ(op3.va, 0x2000u);
  EXPECT_EQ(op4.kind, CoreOpKind::kFlush);
  EXPECT_EQ(op4.va, 0x2000u);
}

TEST(HammerStream, IterationsBoundHalts) {
  HammerConfig config;
  config.aggressors = {0x1000};
  config.iterations = 3;
  HammerStream stream(config);
  int ops = 0;
  while (stream.Next().kind != CoreOpKind::kHalt) {
    ++ops;
  }
  EXPECT_EQ(ops, 6);  // 3 passes * (load + flush).
}

TEST(HammerStream, EmptyAggressorsHaltsImmediately) {
  HammerStream stream(HammerConfig{});
  EXPECT_EQ(stream.Next().kind, CoreOpKind::kHalt);
}

TEST(HammerStream, IlpHintMatchesAggressorCount) {
  HammerConfig config;
  config.aggressors = {1, 2, 3, 4};
  HammerStream stream(config);
  EXPECT_EQ(stream.IlpHint(), 4u);
}

TEST(AdaptiveHammer, PrologueThenDecoyFirstCycles) {
  AdaptiveHammerConfig config;
  config.aggressors = {0x1000};
  config.decoys = {0xD000};
  config.counter_threshold = 16;
  config.safety_margin = 4;
  AdaptiveHammerStream stream(config);

  // Prologue: threshold - margin = 12 decoy pairs (alignment).
  for (int i = 0; i < 2 * 12; ++i) {
    EXPECT_EQ(stream.Next().va, 0xD000u) << "prologue pair " << i / 2;
  }
  // Steady-state cycle of 16 pairs: 2*margin = 8 decoys, then 8 aggressors.
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 2 * 8; ++i) {
      EXPECT_EQ(stream.Next().va, 0xD000u) << "cycle " << cycle;
    }
    for (int i = 0; i < 2 * 8; ++i) {
      EXPECT_EQ(stream.Next().va, 0x1000u) << "cycle " << cycle;
    }
  }
}

TEST(AdaptiveHammer, OverflowPositionsLandInDecoyWindow) {
  // Simulate the deterministic counter: overflow on every threshold-th
  // pair; each overflow index must map to a decoy pair.
  AdaptiveHammerConfig config;
  config.aggressors = {0x1000};
  config.decoys = {0xD000};
  config.counter_threshold = 64;
  config.safety_margin = 8;
  AdaptiveHammerStream stream(config);
  std::vector<VirtAddr> pair_va;
  for (int i = 0; i < 64 * 20; ++i) {
    const CoreOp load = stream.Next();
    stream.Next();  // flush
    pair_va.push_back(load.va);
  }
  // Counter overflows on pair indices 63, 127, 191, ... (1-based 64th).
  for (size_t overflow = 63; overflow < pair_va.size(); overflow += 64) {
    EXPECT_EQ(pair_va[overflow], 0xD000u) << "overflow at pair " << overflow;
  }
  // But a large majority of pairs hammer real aggressors.
  const size_t aggressor_pairs =
      static_cast<size_t>(std::count(pair_va.begin(), pair_va.end(), 0x1000u));
  EXPECT_GT(aggressor_pairs, pair_va.size() / 2);
}

TEST(AdaptiveHammer, IterationsBound) {
  AdaptiveHammerConfig config;
  config.aggressors = {1};
  config.decoys = {2};
  config.iterations = 10;
  AdaptiveHammerStream stream(config);
  int ops = 0;
  while (stream.Next().kind != CoreOpKind::kHalt && ops < 100) {
    ++ops;
  }
  EXPECT_EQ(ops, 10);
}

TEST(AdaptiveHammer, MissingSetsHalt) {
  AdaptiveHammerConfig config;
  config.aggressors = {1};
  AdaptiveHammerStream stream(config);  // No decoys.
  EXPECT_EQ(stream.Next().kind, CoreOpKind::kHalt);
}

}  // namespace
}  // namespace ht
