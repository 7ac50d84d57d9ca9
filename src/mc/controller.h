// The CPU's integrated memory controller, extended with the paper's three
// proposed Rowhammer-management primitives:
//
//  1. Subarray-isolated interleaving (§4.1): an address-mapping mode plus
//     a per-domain subarray-group table (ASID-style) the host OS programs;
//     the MC checks that every request from a domain lands in its group.
//  2. Precise ACT interrupt events (§4.2): per-channel ACT counters whose
//     overflow interrupt latches the physical address of the RD/WR that
//     triggered the most recent ACT (see act_counter.h).
//  3. A host-privileged refresh instruction (§4.3): RefreshRow(pa, ap)
//     performs PRE → ACT(row) → optional PRE on the target row, giving
//     software a direct, reliable row refresh. REF_NEIGHBORS(pa, b) is the
//     optional DRAM-assisted variant.
//
// Baseline scheduling is FR-FCFS over per-channel queues with an
// open-page row-buffer policy and a rank-level refresh manager. Each
// channel's queue is one fixed slab of queue_capacity entries threaded
// into an age-ordered list per (rank, bank), so a scheduling pass visits
// occupied banks rather than every queued request (DESIGN.md §8). An
// organization must have ranks x banks <= 64: per-bank state is kept in
// 64-bit masks. Hardware mitigation baselines (PARA/Graphene/TWiCe/
// BlockHammer) plug in via the McMitigation interface and are driven on
// every ACT.
#ifndef HAMMERTIME_SRC_MC_CONTROLLER_H_
#define HAMMERTIME_SRC_MC_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/telemetry/trace.h"
#include "common/types.h"
#include "dram/device.h"
#include "mc/act_counter.h"
#include "mc/addrmap.h"
#include "mc/check_hooks.h"
#include "mc/mitigations.h"
#include "mc/request.h"

namespace ht {

struct McConfig {
  InterleaveScheme scheme = InterleaveScheme::kCacheLine;
  bool open_page = true;           // Leave rows open after RD/WR.
  uint32_t queue_capacity = 64;    // Per-channel request queue depth (slab size).
  ActCounterConfig act_counter;
  // Enforce the domain→subarray-group table on every request (§4.1).
  bool enforce_domain_groups = false;
  // Mitigation neighbour refreshes / software victim refreshes use the
  // REF_NEIGHBORS command (DRAM assist) instead of per-row PRE+ACT pairs.
  bool use_ref_neighbors = false;
  // Event-driven busy-phase scheduling: each channel keeps the exact
  // earliest cycle any scheduling stage could issue (after failed scans
  // and after issues alike), NextWake returns that cycle instead of
  // `now`, and Tick skips channels before it. Produces bit-identical
  // command streams and stats (scheduler telemetry aside); disable to
  // cross-check or to measure the per-cycle baseline.
  bool event_driven = true;
};

// Completion notification for a refresh-instruction invocation.
struct RefreshDone {
  PhysAddr addr = 0;
  Cycle requested = 0;
  Cycle completed = 0;
};
using RefreshDoneCallback = std::function<void(const RefreshDone&)>;

class MemoryController {
 public:
  MemoryController(const DramConfig& dram_config, const McConfig& mc_config);

  // --- Request plane --------------------------------------------------------

  // Enqueues a request; returns false when the channel queue is full
  // (callers retry next cycle — models backpressure).
  bool Enqueue(const MemRequest& request, Cycle now);

  void set_response_handler(MemResponseCallback handler) { response_handler_ = std::move(handler); }

  // Advances the controller one DRAM clock cycle.
  void Tick(Cycle now);

  // Earliest cycle >= now at which Tick(now) could change state or emit a
  // stat. Event-driven mode reports the exact next-issueable cycle even
  // while queues hold work (each channel's scheduling memo), joined with
  // in-flight read completions and the mitigation epoch; legacy mode
  // returns `now` whenever any queue holds work. Never later than the
  // controller's next actual action, so the System may advance its clock
  // straight to the returned cycle.
  Cycle NextWake(Cycle now) const;

  // Folds the mitigation's lazily-maintained table probes into
  // act.table_probes. Idempotent; the stats() accessors call it, so
  // readers always see fresh values.
  void SyncTelemetry();

  // Counts into mc.throttle_stalls every cycle before `now` on which a
  // scan would have met throttled heads but the scheduling memo let the
  // channel sleep instead. Idempotent; call it with the current cycle
  // before reading that stat mid-run (System does, wherever it syncs
  // telemetry and at the end of each run).
  void SyncThrottleStalls(Cycle now);

  // Outstanding work (queued requests, internal ops, in-flight reads).
  bool Idle() const;
  size_t QueuedRequests() const;

  // --- Primitive #1: subarray-isolated interleaving -------------------------

  // Host-OS side of the ASID-style coordination: domain → subarray group.
  void SetDomainGroup(DomainId domain, uint32_t group) { domain_groups_[domain] = group; }
  std::optional<uint32_t> DomainGroup(DomainId domain) const;

  // --- Primitive #2: precise ACT interrupts ----------------------------------

  ActCounter& act_counter(uint32_t channel) { return *act_counters_[channel]; }
  void SetActInterruptHandler(ActInterruptHandler handler);

  // --- Primitive #3: refresh instruction ------------------------------------

  // Software-requested refresh of the row containing `addr` (§4.3).
  // Modeled as a host-privileged operation; privilege is checked by the
  // CPU layer before it reaches the MC. Returns false if the internal op
  // queue is full.
  bool RefreshRow(PhysAddr addr, bool auto_precharge, Cycle now,
                  RefreshDoneCallback done = nullptr);

  // DRAM-assisted victim refresh: REF_NEIGHBORS(addr's row, blast).
  bool RefreshNeighbors(PhysAddr addr, uint32_t blast, Cycle now);

  // --- Plumbing --------------------------------------------------------------

  const AddressMapper& mapper() const { return mapper_; }
  DramDevice& device(uint32_t channel) { return *devices_[channel]; }
  const DramDevice& device(uint32_t channel) const { return *devices_[channel]; }
  uint32_t channels() const { return static_cast<uint32_t>(devices_.size()); }

  void InstallMitigation(std::unique_ptr<McMitigation> mitigation);
  McMitigation* mitigation() { return mitigation_.get(); }
  const McMitigation* mitigation() const { return mitigation_.get(); }

  // Both accessors fold the mitigation table probes in first
  // (SyncTelemetry is idempotent and cheap), so mid-run readers —
  // samplers, summaries, tests — always see current values.
  StatSet& stats() {
    SyncTelemetry();
    return stats_;
  }
  const StatSet& stats() const {
    const_cast<MemoryController*>(this)->SyncTelemetry();
    return stats_;
  }
  const McConfig& config() const { return config_; }
  const DramConfig& dram_config() const { return dram_config_; }

  // Attach (or detach with nullptr) a trace buffer; propagates to every
  // channel's device and ACT counter, so all DDR commands, flips, TRR
  // repairs, interrupts, and epoch rollovers land in one buffer.
  void set_trace(TraceBuffer* trace);

  // Total Rowhammer flip events across all channels.
  uint64_t TotalFlipEvents() const;

  // --- Differential checking -------------------------------------------------

  // Attach (or detach with nullptr) the scheduler observer; see
  // mc/check_hooks.h. Detached, each scheduling call pays one branch.
  void set_check_observer(McCheckObserver* check) { check_ = check; }

  // A queued request as an observer sees it. `seq` is the channel-wide
  // arrival number FR-FCFS orders by ("oldest" = smallest seq).
  struct QueuedRequest {
    uint64_t seq = 0;
    MemOp op = MemOp::kRead;
    DdrCoord coord;
  };
  // Fills `out` with the channel's request queue, oldest first.
  void QueueInAgeOrder(uint32_t channel, std::vector<QueuedRequest>* out) const;
  // REF due cycles: one per rank, or one per (rank, bank) slot under
  // per-bank refresh. A slot at or past its due is draining.
  const std::vector<Cycle>& RefreshDue(uint32_t channel) const {
    return channels_[channel].ref_due;
  }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;  // End of a slab list.

  // One request-queue slab entry. Live entries sit on their bank's
  // doubly linked list; free ones on the channel's free list (`next` only).
  struct PendingRequest {
    uint64_t seq = 0;      // Channel-wide arrival order.
    uint32_t next = kNil;  // Next younger entry of the same bank (or next free).
    uint32_t prev = kNil;  // Next older entry of the same bank.
    bool counted = false;  // Row-hit/miss/conflict already classified.
    DdrCoord coord;
    MemRequest request;
  };

  // A (rank, bank) slot's requests, oldest at `head`, plus the pass-1
  // memo: for row `hit_row` (kNil = not computed), hits[0] / hits[1] are
  // the oldest read / write to that row (kNil = none). Enqueue and unlink
  // keep it exact (an issued hit resumes the walk of its kind from its
  // successor); a different open row recomputes it.
  struct BankQueue {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t hit_row = kNil;
    uint32_t hits[2] = {kNil, kNil};
  };

  enum class InternalOpKind : uint8_t {
    kRefreshRow,       // PRE (if needed) → ACT → optional PRE.
    kRefreshNeighbors, // PRE (if needed) → REF_NEIGHBORS.
  };

  struct InternalOp {
    InternalOpKind kind = InternalOpKind::kRefreshRow;
    DdrCoord coord{};
    bool auto_precharge = true;
    uint32_t blast = 0;
    bool activated = false;  // ACT already issued (awaiting final PRE).
    Cycle requested = 0;
    PhysAddr addr = 0;
    RefreshDoneCallback done = nullptr;
  };

  struct InFlightRead {
    Cycle ready = 0;
    MemResponse response;
    // Min-heap by ready cycle.
    friend bool operator>(const InFlightRead& a, const InFlightRead& b) {
      return a.ready > b.ready;
    }
  };

  struct ChannelState {
    // The request queue: `slab` holds queue_capacity entries, threaded
    // into one age-ordered list per (rank, bank) slot (`banks`, indexed
    // rank * banks + bank). `occupied` has a bit per slot whose list is
    // non-empty; `queued` counts live entries.
    std::vector<PendingRequest> slab;
    std::vector<BankQueue> banks;
    uint64_t occupied = 0;
    uint32_t free_head = kNil;
    uint32_t queued = 0;
    uint64_t next_seq = 0;
    std::deque<InternalOp> internal_ops;
    std::vector<Cycle> ref_due;  // Per rank.
    std::priority_queue<InFlightRead, std::vector<InFlightRead>, std::greater<>> in_flight;
    // Scheduler memo: the earliest cycle TryRequests can issue given the
    // current state (kNeverCycle with an empty queue), and on every cycle
    // before it a scan would fail with the same throttle count. A failed
    // scan and a request issue derive it (ScanRequests); an enqueue
    // lowers it by the newcomer's own command; a REF, an internal-op
    // command or a mitigation epoch resets it to 0, forcing a fresh scan.
    Cycle next_sched = kNeverCycle;
    // Whole-channel memo: no scheduling stage (refresh manager, internal
    // ops, requests) can issue strictly before this cycle unless channel
    // state changes first. Lowered with next_sched and reset to 0 by the
    // same events plus internal-op pushes. Event-driven mode gates
    // TickChannel on it and NextWake reports it; legacy mode ignores it.
    Cycle next_try = 0;
    // Open throttle-stall interval: each cycle from `throttle_from` on
    // that a memoized call stands in for a scan met `throttled_heads`
    // throttled heads. FoldThrottleStalls counts them into
    // mc.throttle_stalls, so the stat stays exact per cycle.
    uint32_t throttled_heads = 0;
    Cycle throttle_from = 0;
  };

  // One scheduling step for a channel; issues at most one command.
  // Returns true iff a command issued.
  bool TickChannel(uint32_t channel, Cycle now);
  // Each stage returns true iff it issued a command. `retry` is lowered to
  // the earliest cycle the stage could act next given unchanged channel
  // state (kNeverCycle when only a state change can unblock it); after an
  // issue only TryRequests' value is used.
  bool TryRefreshManager(uint32_t channel, Cycle now, Cycle& retry);
  bool TryInternalOps(uint32_t channel, Cycle now, Cycle& retry);
  // FR-FCFS: issues the pick of ScanRequests(now). Both after a failed
  // scan and after an issue it re-derives next_sched and the throttle
  // interval from a scan's memo.
  bool TryRequests(uint32_t channel, Cycle now, Cycle& retry);
  // The one FR-FCFS candidate walk, in three passes: (1) each open bank's
  // oldest read hit and oldest write hit (RD/WR); (2) closed banks' heads,
  // oldest first (ACT, unless the mitigation throttles the head); (3) open
  // banks' heads that miss the open row (PRE). Passes 1 and 2 skip slots
  // draining at `at`. RD/WR/ACT/PRE legality depends only on (command,
  // rank, bank), so each bank contributes at most these candidates.
  struct RequestScan {
    // The oldest candidate legal at `at` of the first pass that has one
    // (kNil = none), and its command.
    uint32_t pick = kNil;
    DdrCommand cmd;
    // Throttled heads met before the pick, in seq order.
    uint32_t stalls = 0;
    // The memo, exact when the walk ran to the end (no pick, or
    // !stop_at_pick): the earliest cycle >= `at` at which any candidate's
    // command is legal, or a throttled head is released, or (with a
    // throttled head) the next slot starts draining; and the number of
    // throttled heads.
    Cycle earliest = kNeverCycle;
    uint32_t throttled = 0;
  };
  // With `stop_at_pick` the walk returns after the first pass that picks,
  // so the throttle is asked about no head past the pick. Changes no stat
  // and no mitigation state (only the pass-1 hit memo).
  RequestScan ScanRequests(uint32_t channel, Cycle at, bool stop_at_pick);
  // Slots (rank * banks + bank) draining for an overdue REF at `at`; the
  // earliest due after `at` is folded into `next_due` when given.
  uint64_t DrainingSlots(const ChannelState& channel, Cycle at,
                         Cycle* next_due = nullptr) const;
  // Sets and returns next_sched after a request command issued at `now`:
  // derived from ScanRequests(now + 1), or 0 (rescan next cycle) when a
  // slot drains by then or internal ops wait, since either can change
  // what the other stages do.
  Cycle MemoAfterIssue(uint32_t channel, Cycle now);
  // Counts the open throttle interval up to (not including) `now`.
  void FoldThrottleStalls(ChannelState& channel, Cycle now);
  // Recomputes `bank`'s pass-1 memo for open row `row`.
  static void FindHits(const ChannelState& channel, BankQueue& bank, uint32_t row);
  // Unlinks slab entry `index` and performs the access its RD/WR just
  // issued.
  void IssueRequestAccess(uint32_t channel, uint32_t index, Cycle now);
  void ReportDecision(uint32_t channel, Cycle now, const ScheduleDecision& decision) {
    if (check_ != nullptr) [[unlikely]] {
      check_->OnSchedule(channel, now, decision);
    }
  }
  void DrainCompletions(uint32_t channel, Cycle now);
  void NotifyMitigationActivate(const DdrCoord& coord, Cycle now);
  // Expands a neighbour-refresh request into internal ops.
  void EnqueueNeighborRefresh(const NeighborRefreshRequest& refresh, uint32_t channel, Cycle now);
  // Queues an internal op and resets the channel memo; when the queue is
  // full, counts `rejected_stat` instead and returns false.
  bool PushInternalOp(uint32_t channel, InternalOp op, const char* rejected_stat);

  DramConfig dram_config_;
  McConfig config_;
  AddressMapper mapper_;
  std::vector<std::unique_ptr<DramDevice>> devices_;
  std::vector<std::unique_ptr<ActCounter>> act_counters_;
  std::vector<ChannelState> channels_;
  std::unique_ptr<McMitigation> mitigation_;
  std::unordered_map<DomainId, uint32_t> domain_groups_;
  MemResponseCallback response_handler_;
  Cycle next_epoch_ = 0;
  uint64_t epoch_index_ = 0;  // Refresh windows completed (trace only).
  StatSet stats_;
  TraceBuffer* trace_ = nullptr;
  McCheckObserver* check_ = nullptr;
  uint64_t rank_bank_mask_ = 0;  // One bit per bank of a rank.

  // Interned stat handles (resolved once in the constructor; see
  // common/stats.h for lifetime rules).
  Counter* c_requests_;
  Counter* c_enqueue_rejected_;
  Counter* c_domain_group_violations_;
  Counter* c_row_hits_;
  Counter* c_row_misses_;
  Counter* c_row_conflicts_;
  Counter* c_throttle_stalls_;
  Counter* c_reads_done_;
  Counter* c_writes_done_;
  Counter* c_refs_issued_;
  Counter* c_refs_sb_issued_;
  Counter* c_refresh_instr_;
  Counter* c_refresh_instr_acts_;
  Counter* c_mitigation_refreshes_;
  Counter* c_wake_batches_;      // Per-channel scheduling scans (summed).
  Counter* c_table_probes_;      // Mitigation flat-table probes (synced).
  Histogram* h_cmds_per_wake_;   // Commands issued per channel scan (0/1).
  Histogram* h_read_latency_;
  Histogram* h_write_latency_;
  uint64_t mitigation_probes_synced_ = 0;

  static constexpr size_t kMaxInternalOps = 256;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_MC_CONTROLLER_H_
