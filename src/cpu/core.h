// An in-order core with a configurable memory-level-parallelism window.
//
// Cores pull CoreOps from an InstructionStream, translate virtual
// addresses through the host OS page tables, and access memory through
// the shared LLC. Loads/stores that miss become MemRequests to the
// memory controller; up to `window` independent accesses may be
// outstanding (pointer-chase streams hint window 1).
//
// The core also executes the paper's proposed host-privileged refresh
// instruction (§4.3): guest cores attempting it take a privilege fault.
#ifndef HAMMERTIME_SRC_CPU_CORE_H_
#define HAMMERTIME_SRC_CPU_CORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/stats.h"
#include "common/types.h"
#include "cpu/cache.h"
#include "cpu/core_ops.h"
#include "mc/controller.h"
#include "mc/request.h"

namespace ht {

// Observed LLC miss — what CPU performance counters can see. Note DMA
// traffic never produces these events (ANVIL's blind spot, §1).
struct MissEvent {
  RequestorId core = 0;
  DomainId domain = kInvalidDomain;
  PhysAddr addr = 0;
  MemOp op = MemOp::kRead;
  Cycle cycle = 0;
};
using MissObserver = std::function<void(const MissEvent&)>;

struct CoreConfig {
  uint32_t window = 8;        // Max outstanding independent accesses.
  uint32_t flush_latency = 4; // Cycles consumed by clflush issue.
  bool is_host = false;       // May execute the refresh instruction.
  // Event-driven stalls: while window- or fence-stalled the core sleeps
  // (NextWake = kNeverCycle) instead of ticking every cycle, waking when
  // the unblocking MC response lands. Stall cycles are accounted as
  // intervals in both modes, so the stall counters are identical either
  // way; disable to keep the per-cycle wake pattern for cross-checking.
  bool event_driven = true;
};

using TranslateFn = std::function<std::optional<PhysAddr>(VirtAddr)>;
// Maps a VA to the trust domain issuing it. Installed alongside a mux
// translator when one core carries many tenants' streams (cloud mode),
// so MC-side domain accounting sees the tenant, not the carrier core.
using DomainResolver = std::function<DomainId(VirtAddr)>;

class Core {
 public:
  Core(RequestorId id, DomainId domain, const CoreConfig& config, Cache* cache,
       MemoryController* mc);

  void set_stream(std::unique_ptr<InstructionStream> stream);
  void set_translate(TranslateFn translate) { translate_ = std::move(translate); }
  void set_miss_observer(MissObserver observer) { miss_observer_ = std::move(observer); }
  void set_domain_resolver(DomainResolver resolver) { domain_resolver_ = std::move(resolver); }
  // Called when a refresh instruction completes, which (like OnResponse)
  // can move NextWake earlier from outside Tick.
  void set_wake_hook(std::function<void()> hook) { wake_hook_ = std::move(hook); }

  // Advances the core one cycle: retries stalled writebacks, then issues
  // at most one new operation.
  void Tick(Cycle now);

  // Earliest cycle >= now at which Tick could change state or emit a stat.
  // kNeverCycle means the core only wakes through the MC (halted, no
  // stream, or blocked on an in-flight refresh instruction — states where
  // per-cycle ticking is a no-op until an MC event lands).
  Cycle NextWake(Cycle now) const;

  // Delivers a completed memory request (routed by the System).
  void OnResponse(const MemResponse& response, Cycle now);

  // Folds any open stall interval into the stall counters up to `now`
  // (idempotent; the interval stays open). Stall cycles are counted as
  // closed intervals, so callers reading core stats mid-stall — e.g.
  // System::CollectStats at end of run — must sync first.
  void SyncStallStats(Cycle now);

  bool halted() const { return halted_; }
  uint64_t ops_completed() const { return ops_completed_; }
  uint32_t outstanding() const { return outstanding_; }
  RequestorId id() const { return id_; }
  DomainId domain() const { return domain_; }

  StatSet& stats() { return stats_; }

 private:
  struct PendingStore {
    uint64_t value = 0;
  };

  void Execute(const CoreOp& op, Cycle now);
  bool IssueAccess(const CoreOp& op, PhysAddr pa, Cycle now);
  void EnqueueWriteback(PhysAddr addr, uint64_t value, Cycle now);
  uint64_t NextRequestId() { return (static_cast<uint64_t>(id_) << 40) | next_seq_++; }

  RequestorId id_;
  DomainId domain_;
  CoreConfig config_;
  Cache* cache_;
  MemoryController* mc_;
  std::unique_ptr<InstructionStream> stream_;
  TranslateFn translate_;
  MissObserver miss_observer_;
  DomainResolver domain_resolver_;
  std::function<void()> wake_hook_;

  bool halted_ = false;
  bool fence_pending_ = false;
  bool refresh_pending_ = false;
  // Open stall intervals (counted on close or via SyncStallStats). At
  // most one can be open: a fence blocks before the op fetch, a window
  // stall happens inside a load/store with no fence pending.
  bool window_stalled_ = false;
  bool fence_stalled_ = false;
  Cycle window_stall_since_ = 0;
  Cycle fence_stall_since_ = 0;
  std::optional<CoreOp> current_op_;
  Cycle next_issue_ = 0;
  uint32_t window_ = 8;
  uint32_t outstanding_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t ops_completed_ = 0;
  std::unordered_map<uint64_t, PendingStore> pending_stores_;
  std::deque<MemRequest> stalled_writebacks_;
  StatSet stats_;

  // Interned stat handles (see common/stats.h for lifetime rules).
  Counter* c_fence_stalls_;
  Counter* c_window_stalls_;
  Counter* c_translation_faults_;
  Counter* c_flushes_;
  Counter* c_load_hits_;
  Counter* c_store_hits_;
  Counter* c_load_misses_;
  Counter* c_store_misses_;
  Counter* c_mc_backpressure_;
  Histogram* h_miss_latency_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_CPU_CORE_H_
