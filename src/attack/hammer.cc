#include "attack/hammer.h"

namespace ht {

CoreOp HammerStream::Next() {
  if (config_.aggressors.empty() ||
      (config_.iterations != 0 && passes_ >= config_.iterations)) {
    return CoreOp::Halt();
  }
  const VirtAddr va = config_.aggressors[cursor_];
  if (config_.flush && flush_phase_) {
    flush_phase_ = false;
    ++cursor_;
    if (cursor_ >= config_.aggressors.size()) {
      cursor_ = 0;
      ++passes_;
    }
    return CoreOp::Flush(va);
  }
  if (config_.flush) {
    flush_phase_ = true;
  } else {
    ++cursor_;
    if (cursor_ >= config_.aggressors.size()) {
      cursor_ = 0;
      ++passes_;
    }
  }
  return CoreOp::Load(va);
}

bool AdaptiveHammerStream::PairIsDecoy(uint64_t pair_index) const {
  const uint64_t threshold = std::max<uint64_t>(config_.counter_threshold, 4);
  const uint64_t margin = std::min(config_.safety_margin, threshold / 4);
  const uint64_t prologue = threshold - margin;
  if (pair_index < prologue) {
    return true;  // Alignment prologue: pure decoys.
  }
  // Steady state: cycles of exactly `threshold` pairs, decoys first.
  const uint64_t position = (pair_index - prologue) % threshold;
  return position < 2 * margin;
}

CoreOp AdaptiveHammerStream::Next() {
  if (config_.aggressors.empty() || config_.decoys.empty()) {
    return CoreOp::Halt();
  }
  if (config_.iterations != 0 && total_ops_ >= config_.iterations) {
    return CoreOp::Halt();
  }
  ++total_ops_;

  // Each load+flush pair produces ~1 ACT, so pair index tracks the
  // channel ACT counter (no other counted ACT sources while attacking).
  const auto& set = PairIsDecoy(pair_index_) ? config_.decoys : config_.aggressors;
  const VirtAddr va = set[pair_index_ % set.size()];
  if (flush_phase_) {
    flush_phase_ = false;
    ++pair_index_;
    return CoreOp::Flush(va);
  }
  flush_phase_ = true;
  return CoreOp::Load(va);
}

}  // namespace ht
