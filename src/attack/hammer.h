// Rowhammer attack instruction streams.
//
// The canonical access pattern (§2.1): alternate cached reads of aggressor
// rows in one bank, flushing each line after use so every read misses the
// LLC and forces a row-buffer conflict — hence an ACT — in DRAM.
//
// HammerStream covers single-sided (1 aggressor + conflict row),
// double-sided (2 aggressors sandwiching a victim), and many-sided /
// TRRespass-style (n aggressors to overflow the TRR tracker, §3).
// AdaptiveHammerStream models the §4.2 evasion attacker that synchronizes
// with a deterministic ACT-counter threshold, steering every overflow
// interrupt onto decoy rows.
#ifndef HAMMERTIME_SRC_ATTACK_HAMMER_H_
#define HAMMERTIME_SRC_ATTACK_HAMMER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/core_ops.h"

namespace ht {

struct HammerConfig {
  std::vector<VirtAddr> aggressors;  // Line VAs, one per aggressor row.
  uint64_t iterations = 0;           // Full passes over the set; 0 = endless.
};

class HammerStream : public InstructionStream {
 public:
  explicit HammerStream(const HammerConfig& config) : config_(config) {}

  CoreOp Next() override;
  // Loads to distinct aggressor rows are independent.
  uint32_t IlpHint() const override {
    return static_cast<uint32_t>(std::max<size_t>(1, config_.aggressors.size()));
  }

 private:
  HammerConfig config_;
  size_t cursor_ = 0;
  bool flush_phase_ = false;
  uint64_t passes_ = 0;
};

struct AdaptiveHammerConfig {
  std::vector<VirtAddr> aggressors;
  std::vector<VirtAddr> decoys;      // Rows the attacker sacrifices to the
                                     // interrupt (must be harmless to it).
  uint64_t counter_threshold = 512;  // The ACT-counter threshold (known or
                                     // guessed by the attacker).
  uint64_t safety_margin = 32;       // Half-width of the decoy window.
  uint64_t iterations = 0;           // Total load/flush ops; 0 = endless.
};

// Phase-locks its access pattern to the (deterministic) counter period:
// after a prologue of (threshold - margin) decoy pairs, it repeats a
// cycle of exactly `threshold` pairs — 2*margin decoys followed by
// (threshold - 2*margin) aggressor pairs — so every overflow lands in the
// middle of the decoy window and the interrupt reports a decoy address.
// Randomized counter resets (§4.2) break the phase lock.
class AdaptiveHammerStream : public InstructionStream {
 public:
  explicit AdaptiveHammerStream(const AdaptiveHammerConfig& config) : config_(config) {}

  CoreOp Next() override;
  // Serialized on purpose: overlapping a load with the previous flush can
  // turn it into a cache hit (no ACT), breaking the attacker's ACT-count
  // phase lock. Real evasion code fences between pairs for the same reason.
  uint32_t IlpHint() const override { return 1; }

 private:
  // Which set the pair at cycle position `pair_index` draws from.
  bool PairIsDecoy(uint64_t pair_index) const;

  AdaptiveHammerConfig config_;
  uint64_t pair_index_ = 0;  // Monotonic load+flush pair counter.
  bool flush_phase_ = false;
  uint64_t total_ops_ = 0;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_ATTACK_HAMMER_H_
