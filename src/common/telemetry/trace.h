// Cycle-stamped event tracing for the simulator.
//
// Components hold a cached `TraceBuffer*` that is nullptr when tracing is
// off; every emit site is a single pointer test (`HT_TRACE(...)`), so a
// disabled build path costs one predictable branch — the same discipline
// as the interned stat handles. When enabled, events land in a
// fixed-capacity ring buffer (oldest events are overwritten, drops are
// counted), one buffer per scenario/thread so the emit path never locks.
//
// A TraceSink owns the buffers and serializes them — merged in buffer
// creation order, which RunScenarios pins to spec order — as Chrome
// `trace_event` JSON loadable in chrome://tracing or Perfetto: one
// process per DRAM channel (plus synthetic "defense"/"os" processes),
// one thread track per rank/bank.
#ifndef HAMMERTIME_SRC_COMMON_TELEMETRY_TRACE_H_
#define HAMMERTIME_SRC_COMMON_TELEMETRY_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace ht {

enum class TraceKind : uint8_t {
  // DRAM commands, recorded at device issue time.
  kAct = 0,
  kPre,
  kPreAll,
  kRd,
  kWr,
  kRef,
  kRefSb,
  kRefNeighbors,
  // Disturbance / in-DRAM events.
  kBitFlip,     // row = victim, arg = aggressor row | bits<<32.
  kTrrRepair,   // row = tracked aggressor whose neighbours were refreshed.
  // Controller events.
  kActInterrupt,       // arg = trigger physical address.
  kMitigationRefresh,  // row = aggressor, arg = blast radius.
  kEpochRollover,      // refresh-window boundary, arg = window index.
  // Defense / OS events (channel/rank/bank unused).
  kDefenseTrigger,  // arg = trigger physical address (or detection key).
  kDefenseAction,   // arg = acted-on physical address.
  kQuarantine,      // arg = migrated physical address.
  kPageMove,        // arg = destination frame.
};

const char* ToString(TraceKind kind);

// One cycle-stamped event. 24 bytes; plain data so the ring buffer is a
// flat array.
struct TraceEvent {
  Cycle cycle = 0;
  TraceKind kind = TraceKind::kAct;
  uint8_t channel = 0;
  uint8_t rank = 0;
  uint8_t bank = 0;
  uint32_t row = 0;
  uint64_t arg = 0;
};

// Single-producer ring buffer of trace events. Not thread-safe: each
// simulated System (one scenario == one worker thread) writes its own
// buffer, so the emit path is lock-free by construction.
class TraceBuffer {
 public:
  TraceBuffer(std::string label, size_t capacity);

  void Emit(const TraceEvent& event) {
    ring_[static_cast<size_t>(emitted_ % capacity_)] = event;
    ++emitted_;
  }
  void Emit(Cycle cycle, TraceKind kind, uint8_t channel, uint8_t rank, uint8_t bank,
            uint32_t row, uint64_t arg) {
    Emit(TraceEvent{cycle, kind, channel, rank, bank, row, arg});
  }

  const std::string& label() const { return label_; }
  size_t capacity() const { return capacity_; }
  uint64_t events_emitted() const { return emitted_; }
  uint64_t events_dropped() const { return emitted_ > capacity_ ? emitted_ - capacity_ : 0; }
  size_t size() const { return static_cast<size_t>(std::min<uint64_t>(emitted_, capacity_)); }

  // Calls fn(event) for each retained event in chronological (emit) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t head = emitted_ > capacity_ ? static_cast<size_t>(emitted_ % capacity_) : 0;
    for (size_t i = 0; i < size(); ++i) {
      fn(ring_[(head + i) % ring_.size()]);
    }
  }

  // Retained events in chronological (emit) order.
  std::vector<TraceEvent> Snapshot() const;

 private:
  std::string label_;
  uint64_t capacity_;
  uint64_t emitted_ = 0;
  std::vector<TraceEvent> ring_;
};

// Owns one TraceBuffer per scenario/thread and renders the merged stream.
// CreateBuffer is the only synchronized operation; emission never crosses
// buffer boundaries.
class TraceSink {
 public:
  static constexpr size_t kDefaultBufferCapacity = 1u << 18;  // ~6 MB of events.

  explicit TraceSink(size_t buffer_capacity = kDefaultBufferCapacity)
      : buffer_capacity_(buffer_capacity) {}

  // Pointers stay valid for the sink's lifetime. Buffers are merged in
  // creation order, so callers that need deterministic output (the
  // parallel scenario runner) must create buffers in a deterministic
  // order before fanning out.
  TraceBuffer* CreateBuffer(const std::string& label);

  size_t buffer_count() const;
  uint64_t total_emitted() const;

  // Chrome trace_event JSON ("traceEvents" array + track-name metadata)
  // of every buffer's retained events, merged in creation order. `ts` is
  // the simulated cycle; pid/tid encode channel and rank/bank.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  size_t buffer_capacity_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

}  // namespace ht

// Emit-site macro: `buffer` is a (possibly null) TraceBuffer*; arguments
// after it are forwarded to TraceBuffer::Emit and are NOT evaluated when
// tracing is off.
#define HT_TRACE(buffer, ...)                       \
  do {                                              \
    ::ht::TraceBuffer* ht_trace_buffer = (buffer);  \
    if (ht_trace_buffer != nullptr) [[unlikely]] {  \
      ht_trace_buffer->Emit(__VA_ARGS__);           \
    }                                               \
  } while (0)

#endif  // HAMMERTIME_SRC_COMMON_TELEMETRY_TRACE_H_
