// The paper's frequency-centric primitive (§4.2): a per-channel ACT
// counter whose overflow interrupt reports the physical (cache line)
// address of the most recent RD/WR that triggered an ACT — "precise ACT
// interrupt events". Modern Intel MCs already count ACTs per channel and
// can interrupt on overflow [22]; the novelty is the latched address.
//
// The host OS configures the threshold and, to defeat attackers that
// synchronize with the counter, may randomize the post-interrupt reset
// value (§4.2: "including a degree of randomness in counter reset values").
#ifndef HAMMERTIME_SRC_MC_ACT_COUNTER_H_
#define HAMMERTIME_SRC_MC_ACT_COUNTER_H_

#include <cstdint>
#include <functional>

#include "common/flat_table.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/telemetry/trace.h"
#include "common/types.h"

namespace ht {

// Packs a (channel, rank, bank, row) coordinate into the canonical
// 64-bit row key used by every per-row counter table in the system.
inline uint64_t PackRowKey(uint32_t channel, uint32_t rank, uint32_t bank, uint32_t row) {
  uint64_t key = channel;
  key = (key << 8) | rank;
  key = (key << 8) | bank;
  key = (key << 32) | row;
  return key;
}

// Per-row activation/interrupt counters on flat epoch-tagged storage
// (FlatRowTable), shared by the frequency- and refresh-centric defenses.
// Refresh-window resets are O(1) epoch bumps (AdvanceWindow), and the
// table's probe count is forwarded to an interned "act.table_probes"
// stats counter so hot-loop regressions are visible in run reports.
class RowActTable {
 public:
  explicit RowActTable(size_t min_capacity = 64) : table_(min_capacity) {}

  void set_probe_counter(Counter* counter) { c_probes_ = counter; }

  // Increments `key`'s count and returns the new value.
  uint32_t Increment(uint64_t key) {
    uint32_t& count = table_.FindOrInsert(key);
    ++count;
    SyncProbes();
    return count;
  }

  // Count for `key` this window (0 if never incremented).
  uint32_t Get(uint64_t key) const {
    const uint32_t* count = table_.Find(key);
    return count != nullptr ? *count : 0;
  }

  // Forgets `key` (equivalent to erasing it: counts restart from zero).
  void Reset(uint64_t key) {
    uint32_t* count = table_.Find(key);
    if (count != nullptr) {
      *count = 0;
    }
    SyncProbes();
  }

  // Forgets every row in O(1) — the epoch-tagged replacement for the old
  // per-window clear().
  void AdvanceWindow() { table_.AdvanceEpoch(); }

  size_t distinct_rows() const { return table_.size(); }
  uint64_t probes() const { return table_.probes(); }
  uint64_t reset_work() const { return table_.reset_work(); }

 private:
  void SyncProbes() {
    if (c_probes_ != nullptr) {
      c_probes_->Add(table_.probes() - probes_synced_);
      probes_synced_ = table_.probes();
    }
  }

  FlatRowTable<uint32_t> table_;
  Counter* c_probes_ = nullptr;
  uint64_t probes_synced_ = 0;
};

struct ActInterrupt {
  uint32_t channel = 0;
  // Physical line address of the RD/WR that caused the latest ACT —
  // the paper's proposed addition to the existing ACT_COUNT event.
  PhysAddr trigger_addr = 0;
  DomainId trigger_domain = kInvalidDomain;
  bool trigger_is_dma = false;
  Cycle cycle = 0;
  uint64_t acts_since_reset = 0;
};

using ActInterruptHandler = std::function<void(const ActInterrupt&)>;

struct ActCounterConfig {
  bool enabled = false;
  uint64_t threshold = 512;       // Interrupt after this many ACTs.
  bool randomize_reset = false;   // Reset to uniform [0, threshold) if set.
  uint64_t rng_seed = 0xACC7ULL;
  // Legacy mode (existing Intel behaviour): raise the interrupt but do
  // NOT latch the trigger address — lets experiments show why the
  // imprecise event is useless for defense (§4.2 "Problem").
  bool precise = true;
};

class ActCounter {
 public:
  ActCounter(uint32_t channel, const ActCounterConfig& config)
      : channel_(channel), config_(config), rng_(config.rng_seed + channel) {}

  void set_handler(ActInterruptHandler handler) { handler_ = std::move(handler); }
  const ActCounterConfig& config() const { return config_; }

  // Called by the controller for every ACT it issues, with the physical
  // address / origin of the RD or WR that necessitated the ACT.
  void OnActivate(PhysAddr trigger_addr, DomainId domain, bool is_dma, Cycle now);

  uint64_t count() const { return count_; }
  uint64_t interrupts_raised() const { return interrupts_; }

  void set_trace(TraceBuffer* trace) { trace_ = trace; }

 private:
  uint32_t channel_;
  ActCounterConfig config_;
  Rng rng_;
  ActInterruptHandler handler_;
  uint64_t count_ = 0;
  uint64_t interrupts_ = 0;
  TraceBuffer* trace_ = nullptr;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_MC_ACT_COUNTER_H_
