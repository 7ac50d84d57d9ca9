#include "mc/controller.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "common/telemetry/profile.h"

namespace ht {

MemoryController::MemoryController(const DramConfig& dram_config, const McConfig& mc_config)
    : dram_config_(dram_config), config_(mc_config), mapper_(dram_config.org, mc_config.scheme) {
  const uint64_t slots = uint64_t{dram_config_.org.ranks} * dram_config_.org.banks;
  if (slots == 0 || slots > 64) {
    // The draining, claimed-bank and occupied-bank sets are 64-bit masks
    // indexed rank * banks + bank; a larger organization would shift past
    // bit 63 (undefined behaviour), so refuse it outright.
    std::fprintf(stderr,
                 "MemoryController: unsupported organization: ranks x banks = %u x %u; "
                 "need 1 <= ranks x banks <= 64\n",
                 dram_config_.org.ranks, dram_config_.org.banks);
    std::abort();
  }
  rank_bank_mask_ = dram_config_.org.banks == 64 ? ~0ull : (1ull << dram_config_.org.banks) - 1;
  const uint32_t channels = dram_config_.org.channels;
  devices_.reserve(channels);
  act_counters_.reserve(channels);
  channels_.resize(channels);
  const bool per_bank = dram_config_.retention.per_bank_refresh;
  for (uint32_t c = 0; c < channels; ++c) {
    devices_.push_back(std::make_unique<DramDevice>(dram_config_, c));
    act_counters_.push_back(std::make_unique<ActCounter>(c, config_.act_counter));
    ChannelState& channel = channels_[c];
    channel.slab.resize(config_.queue_capacity);
    for (uint32_t i = 0; i < config_.queue_capacity; ++i) {
      channel.slab[i].next = i + 1 < config_.queue_capacity ? i + 1 : kNil;
    }
    channel.free_head = config_.queue_capacity > 0 ? 0 : kNil;
    channel.banks.resize(slots);
    if (per_bank) {
      // One due-clock per (rank, bank), staggered so REFsb commands spread
      // evenly instead of bursting.
      channels_[c].ref_due.resize(slots);
      for (uint32_t s = 0; s < slots; ++s) {
        channels_[c].ref_due[s] =
            dram_config_.RefPeriod() + s * (dram_config_.RefPeriod() / slots);
      }
    } else {
      channels_[c].ref_due.assign(dram_config_.org.ranks, dram_config_.RefPeriod());
    }
  }
  next_epoch_ = dram_config_.retention.refresh_window;

  c_requests_ = stats_.counter("mc.requests");
  c_enqueue_rejected_ = stats_.counter("mc.enqueue_rejected");
  c_domain_group_violations_ = stats_.counter("mc.domain_group_violations");
  c_row_hits_ = stats_.counter("mc.row_hits");
  c_row_misses_ = stats_.counter("mc.row_misses");
  c_row_conflicts_ = stats_.counter("mc.row_conflicts");
  c_throttle_stalls_ = stats_.counter("mc.throttle_stalls");
  c_reads_done_ = stats_.counter("mc.reads_done");
  c_writes_done_ = stats_.counter("mc.writes_done");
  c_refs_issued_ = stats_.counter("mc.refs_issued");
  c_refs_sb_issued_ = stats_.counter("mc.refs_sb_issued");
  c_refresh_instr_ = stats_.counter("mc.refresh_instr");
  c_refresh_instr_acts_ = stats_.counter("mc.refresh_instr_acts");
  c_mitigation_refreshes_ = stats_.counter("mc.mitigation_refreshes");
  c_wake_batches_ = stats_.counter("mc.wake_batches");
  c_table_probes_ = stats_.counter("act.table_probes");
  h_cmds_per_wake_ = stats_.histogram("mc.cmds_per_wake");
  h_read_latency_ = stats_.histogram("mc.read_latency");
  h_write_latency_ = stats_.histogram("mc.write_latency");
}

std::optional<uint32_t> MemoryController::DomainGroup(DomainId domain) const {
  auto it = domain_groups_.find(domain);
  if (it == domain_groups_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool MemoryController::Enqueue(const MemRequest& request, Cycle now) {
  const DdrCoord coord = mapper_.Map(request.addr);
  ChannelState& channel = channels_[coord.channel];
  if (channel.queued >= config_.queue_capacity) {
    c_enqueue_rejected_->Increment();
    return false;
  }
  if (config_.enforce_domain_groups && request.domain != kInvalidDomain) {
    auto group = DomainGroup(request.domain);
    if (group.has_value() &&
        dram_config_.org.SubarrayOfRow(coord.row) != *group) {
      // The primitive's enforcement hook: a request escaping its domain's
      // subarray group indicates an allocator bug or an attack attempt.
      c_domain_group_violations_->Increment();
    }
  }
  const bool was_empty = channel.occupied == 0;
  const uint32_t index = channel.free_head;
  PendingRequest& entry = channel.slab[index];
  channel.free_head = entry.next;
  const uint32_t slot = coord.rank * dram_config_.org.banks + coord.bank;
  BankQueue& bank = channel.banks[slot];
  entry.seq = channel.next_seq++;
  entry.next = kNil;
  entry.prev = bank.tail;
  entry.counted = false;
  entry.coord = coord;
  entry.request = request;
  entry.request.enqueue_cycle = now;
  (bank.tail == kNil ? bank.head : channel.slab[bank.tail].next) = index;
  bank.tail = index;
  // The newcomer is the bank's youngest, so it is the memo's oldest hit
  // of its kind only if there was none.
  uint32_t& hit = bank.hits[request.op == MemOp::kRead ? 0 : 1];
  if (bank.hit_row == coord.row && hit == kNil) {
    hit = index;
  }
  channel.occupied |= 1ull << slot;
  ++channel.queued;
  // The rest of the queue is unchanged, so the memo only has to cover the
  // newcomer's own candidacy: a row hit (RD/WR), or as its bank's head a
  // PRE (open bank) or an ACT (closed bank). A closed-bank head may be
  // throttled, which changes the throttle count, so with a mitigation
  // installed it forces a rescan instead.
  const DramDevice& device = *devices_[coord.channel];
  const std::optional<uint32_t> open_row = device.OpenRow(coord.rank, coord.bank);
  Cycle earliest = kNeverCycle;
  if (open_row == coord.row) {
    const bool ap = !config_.open_page;
    earliest = device.EarliestCycle(
        request.op == MemOp::kRead ? DdrCommand::Rd(coord.rank, coord.bank, coord.column, ap)
                                   : DdrCommand::Wr(coord.rank, coord.bank, coord.column, ap));
  } else if (bank.head == index && open_row.has_value()) {
    earliest = device.EarliestCycle(DdrCommand::Pre(coord.rank, coord.bank));
  } else if (bank.head == index) {
    earliest = mitigation_ != nullptr
                   ? 0
                   : device.EarliestCycle(DdrCommand::Act(coord.rank, coord.bank, coord.row));
  }
  channel.next_sched = was_empty ? earliest : std::min(channel.next_sched, earliest);
  channel.next_try = std::min(channel.next_try, channel.next_sched);
  c_requests_->Increment();
  return true;
}

void MemoryController::SetActInterruptHandler(ActInterruptHandler handler) {
  for (auto& counter : act_counters_) {
    counter->set_handler(handler);
  }
}

bool MemoryController::RefreshRow(PhysAddr addr, bool auto_precharge, Cycle now,
                                  RefreshDoneCallback done) {
  const DdrCoord coord = mapper_.Map(addr);
  if (!PushInternalOp(coord.channel,
                      {.kind = InternalOpKind::kRefreshRow,
                       .coord = coord,
                       .auto_precharge = auto_precharge,
                       .requested = now,
                       .addr = addr,
                       .done = std::move(done)},
                      "mc.refresh_row_rejected")) {
    return false;
  }
  c_refresh_instr_->Increment();
  return true;
}

bool MemoryController::RefreshNeighbors(PhysAddr addr, uint32_t blast, Cycle now) {
  const DdrCoord coord = mapper_.Map(addr);
  if (!PushInternalOp(coord.channel,
                      {.kind = InternalOpKind::kRefreshNeighbors,
                       .coord = coord,
                       .blast = blast,
                       .requested = now,
                       .addr = addr},
                      "mc.refresh_neighbors_rejected")) {
    return false;
  }
  stats_.Add("mc.refresh_neighbors_cmds");
  return true;
}

bool MemoryController::PushInternalOp(uint32_t channel_index, InternalOp op,
                                      const char* rejected_stat) {
  ChannelState& channel = channels_[channel_index];
  if (channel.internal_ops.size() >= kMaxInternalOps) {
    stats_.Add(rejected_stat);
    return false;
  }
  channel.internal_ops.push_back(std::move(op));
  channel.next_try = 0;
  return true;
}

void MemoryController::Tick(Cycle now) {
  // Gate on the pointers first: without a mitigation (or tracing)
  // next_epoch_ never advances, and testing it first would make this
  // "unlikely" branch permanently taken after the first window.
  if ((mitigation_ != nullptr || trace_ != nullptr) && now >= next_epoch_) [[unlikely]] {
    if (mitigation_ != nullptr) {
      mitigation_->OnEpoch(now);
      SyncTelemetry();  // Window-granular act.table_probes for the sampler.
      HT_TRACE(trace_, next_epoch_, TraceKind::kEpochRollover, 0, 0, 0, 0, epoch_index_);
      ++epoch_index_;
      next_epoch_ += dram_config_.retention.refresh_window;
      for (ChannelState& channel : channels_) {
        channel.next_sched = 0;
        channel.next_try = 0;
      }
    } else {
      // Without a mitigation nothing else reads next_epoch_, so the trace
      // path may advance it (stamping any windows idle-skipping jumped
      // over at their true boundary cycles) without changing simulation.
      while (now >= next_epoch_) {
        trace_->Emit(next_epoch_, TraceKind::kEpochRollover, 0, 0, 0, 0, epoch_index_);
        ++epoch_index_;
        next_epoch_ += dram_config_.retention.refresh_window;
      }
    }
  }
  for (uint32_t c = 0; c < channels(); ++c) {
    ChannelState& channel = channels_[c];
    // Completions are time-driven, so they drain regardless of the
    // scheduling memo (NextWake always includes the nearest ready cycle).
    DrainCompletions(c, now);
    if (config_.event_driven && now < channel.next_try) {
      continue;  // Provably no stage can issue on this channel yet.
    }
    // One "wake batch" = one channel scan; the histogram shows how many
    // commands each scan produced (0 = a wasted wake).
    const bool issued = TickChannel(c, now);
    c_wake_batches_->Increment();
    h_cmds_per_wake_->Record(issued ? 1 : 0);
  }
}

void MemoryController::DrainCompletions(uint32_t channel_index, Cycle now) {
  ChannelState& channel = channels_[channel_index];
  while (!channel.in_flight.empty() && channel.in_flight.top().ready <= now) {
    MemResponse response = channel.in_flight.top().response;
    channel.in_flight.pop();
    response.complete_cycle = now;
    h_read_latency_->Record(response.Latency());
    if (response_handler_) {
      response_handler_(response);
    }
  }
}

bool MemoryController::TickChannel(uint32_t channel_index, Cycle now) {
  // Priority: refresh manager (retention correctness) > internal ops
  // (defense actions are latency-critical) > regular requests.
  ChannelState& channel = channels_[channel_index];
  FoldThrottleStalls(channel, now);
  Cycle refresh_retry = kNeverCycle;
  Cycle internal_retry = kNeverCycle;
  Cycle request_retry = kNeverCycle;
  if (TryRefreshManager(channel_index, now, refresh_retry) ||
      TryInternalOps(channel_index, now, internal_retry)) {
    // No request scan runs this cycle, so the throttle interval closes
    // without counting it; the next cycle rescans.
    channel.throttled_heads = 0;
    channel.next_sched = 0;
    channel.next_try = 0;
    return true;
  }
  const bool issued = TryRequests(channel_index, now, request_retry);
  // Every stage's retry is exact under unchanged channel state, and every
  // state change lowers or resets the memo, so skipping straight to the
  // minimum cannot miss an issue. After a request issue the refresh and
  // internal-op retries still hold: TryRequests falls back to a rescan
  // whenever a slot drains by the next cycle or internal ops wait. The
  // refresh retry always covers the nearest future due (dues recede
  // forever), keeping this finite.
  channel.next_try = std::max(std::min({refresh_retry, internal_retry, request_retry}), now + 1);
  return issued;
}

void MemoryController::FoldThrottleStalls(ChannelState& channel, Cycle now) {
  if (now > channel.throttle_from) {
    c_throttle_stalls_->Add(uint64_t{channel.throttled_heads} * (now - channel.throttle_from));
    channel.throttle_from = now;
  }
}

void MemoryController::SyncThrottleStalls(Cycle now) {
  for (ChannelState& channel : channels_) {
    FoldThrottleStalls(channel, now);
  }
}

namespace {

// Issues `cmd` if it is legal at `now`; otherwise lowers `retry` to the
// cycle it becomes legal.
bool TryIssue(DramDevice& device, const DdrCommand& cmd, Cycle now, Cycle& retry) {
  if (device.Check(cmd, now) == TimingVerdict::kOk) {
    device.Issue(cmd, now);
    return true;
  }
  retry = std::min(retry, device.EarliestCycle(cmd));
  return false;
}

}  // namespace

bool MemoryController::TryRefreshManager(uint32_t channel_index, Cycle now, Cycle& retry) {
  ChannelState& channel = channels_[channel_index];
  DramDevice& device = *devices_[channel_index];
  // Slots are ranks, or (rank, bank) pairs under DDR5-style per-bank
  // refresh, where the other banks keep serving. A due slot drains: close
  // its open bank(s) with PREA / PRE, then REF / REFsb.
  const bool per_bank = dram_config_.retention.per_bank_refresh;
  const uint32_t banks = dram_config_.org.banks;
  // A slot crossing its due cycle changes the scan (drain state, and
  // which slot is first-due), so the nearest future due always bounds the
  // retry. Dues at or before the first due slot are accumulated below;
  // later slots cannot steal "first due" from it, so they are ignored.
  Cycle next_due = kNeverCycle;
  for (uint32_t slot = 0; slot < channel.ref_due.size(); ++slot) {
    if (now < channel.ref_due[slot]) {
      next_due = std::min(next_due, channel.ref_due[slot]);
      continue;
    }
    const uint32_t rank = per_bank ? slot / banks : slot;
    const uint32_t bank = per_bank ? slot % banks : 0;
    retry = next_due;
    if (per_bank ? device.OpenRow(rank, bank).has_value() : device.OpenBankMask(rank) != 0) {
      // Wait for tRAS etc.; keep the bus quiet for this slot.
      return TryIssue(device, per_bank ? DdrCommand::Pre(rank, bank) : DdrCommand::PreAll(rank),
                      now, retry);
    }
    if (!TryIssue(device, per_bank ? DdrCommand::RefSb(rank, bank) : DdrCommand::Ref(rank), now,
                  retry)) {
      return false;
    }
    channel.ref_due[slot] += dram_config_.RefPeriod();
    (per_bank ? c_refs_sb_issued_ : c_refs_issued_)->Increment();
    return true;
  }
  retry = next_due;
  return false;
}

bool MemoryController::TryInternalOps(uint32_t channel_index, Cycle now, Cycle& retry) {
  ChannelState& channel = channels_[channel_index];
  if (channel.internal_ops.empty()) {
    return false;  // retry stays kNeverCycle: a push resets the memo.
  }
  DramDevice& device = *devices_[channel_index];
  InternalOp& op = channel.internal_ops.front();
  const uint32_t rank = op.coord.rank;
  const uint32_t bank = op.coord.bank;
  auto finish = [&] {
    if (op.done) {
      op.done({op.addr, op.requested, now});
    }
    channel.internal_ops.pop_front();
  };
  if (op.activated) {
    // Awaiting the auto-precharge.
    if (!TryIssue(device, DdrCommand::Pre(rank, bank), now, retry)) {
      return false;
    }
    finish();
    return true;
  }
  if ((DrainingSlots(channel, now) >> (rank * dram_config_.org.banks + bank) & 1) != 0) {
    // Target is draining for REF; hold defense ops briefly. The hold ends
    // only when the overdue REF issues, which resets the channel memo, and
    // the refresh-manager retry already covers progress toward it — so no
    // retry cycle of our own (kNeverCycle).
    return false;
  }
  // Close the bank, then issue the refresh.
  if (device.OpenRow(rank, bank).has_value()) {
    return TryIssue(device, DdrCommand::Pre(rank, bank), now, retry);
  }
  if (op.kind == InternalOpKind::kRefreshNeighbors) {
    if (!TryIssue(device, DdrCommand::RefNeighbors(rank, bank, op.coord.row, op.blast), now,
                  retry)) {
      return false;
    }
    finish();
    return true;
  }
  if (!TryIssue(device, DdrCommand::Act(rank, bank, op.coord.row), now, retry)) {
    return false;
  }
  // Refresh ACTs are not attributed to any RD/WR; they still increment
  // the raw ACT counter like real ACT_COUNT would.
  act_counters_[channel_index]->OnActivate(op.addr, kInvalidDomain, false, now);
  op.activated = true;
  c_refresh_instr_acts_->Increment();
  if (!op.auto_precharge) {
    finish();
  }
  return true;
}

uint64_t MemoryController::DrainingSlots(const ChannelState& channel, Cycle at,
                                         Cycle* next_due) const {
  // Starting new row activity in a slot with an overdue REF would starve
  // the refresh manager (and eventually retention). Without per-bank
  // refresh a due rank drains every bank it has.
  const bool per_bank = dram_config_.retention.per_bank_refresh;
  const uint32_t banks = dram_config_.org.banks;
  uint64_t draining = 0;
  for (uint32_t i = 0; i < channel.ref_due.size(); ++i) {
    if (at >= channel.ref_due[i]) {
      draining |= per_bank ? 1ull << i : rank_bank_mask_ << (i * banks);
    } else if (next_due != nullptr) {
      *next_due = std::min(*next_due, channel.ref_due[i]);
    }
  }
  return draining;
}

bool MemoryController::TryRequests(uint32_t channel_index, Cycle now, Cycle& retry) {
  ChannelState& channel = channels_[channel_index];
  if (channel.occupied == 0) {
    return false;  // retry stays kNeverCycle: an enqueue sets the memo.
  }
  if (now < channel.next_sched) {
    // Memoized: channel state is unchanged since next_sched was derived
    // (every mutation lowers or resets it), so a scan would fail
    // identically and meet the same throttled heads; count them here.
    FoldThrottleStalls(channel, now + 1);
    retry = channel.next_sched;
    ReportDecision(channel_index, now,
                   {.memoized = true, .retry = retry, .throttle_stalls = channel.throttled_heads});
    return false;
  }
  const RequestScan scan = ScanRequests(channel_index, now, /*stop_at_pick=*/true);
  c_throttle_stalls_->Add(scan.stalls);
  if (scan.pick == kNil) {
    // Nothing issued: every candidate is timing-blocked or throttled, and
    // the walk met every throttled head. Candidates filtered for non-timing
    // reasons (draining slots, claimed banks, a head pinning its open row)
    // can only unblock via a state change, which lowers or resets the memo.
    channel.next_sched = std::max(scan.earliest, now + 1);
    channel.throttled_heads = scan.throttled;
    channel.throttle_from = now + 1;
    retry = channel.next_sched;
    ReportDecision(channel_index, now, {.retry = retry, .throttle_stalls = scan.stalls});
    return false;
  }
  PendingRequest& pending = channel.slab[scan.pick];
  ReportDecision(channel_index, now,
                 {.issued = true,
                  .command = scan.cmd.type,
                  .seq = pending.seq,
                  .throttle_stalls = scan.stalls});
  devices_[channel_index]->Issue(scan.cmd, now);
  // The first command issued for a request classifies it: a RD/WR served
  // without its own ACT is a row hit, an ACT a miss, a PRE a conflict.
  switch (scan.cmd.type) {
    case DdrCommandType::kActivate:
      if (!pending.counted) {
        c_row_misses_->Increment();
        pending.counted = true;
      }
      act_counters_[channel_index]->OnActivate(pending.request.addr, pending.request.domain,
                                               pending.request.is_dma, now);
      NotifyMitigationActivate(pending.coord, now);
      break;
    case DdrCommandType::kPrecharge:
      if (!pending.counted) {
        c_row_conflicts_->Increment();
        pending.counted = true;
      }
      break;
    default:  // RD/WR.
      if (!pending.counted) {
        c_row_hits_->Increment();
      }
      IssueRequestAccess(channel_index, scan.pick, now);
      break;
  }
  retry = MemoAfterIssue(channel_index, now);
  return true;
}

MemoryController::RequestScan MemoryController::ScanRequests(uint32_t channel_index, Cycle at,
                                                             bool stop_at_pick) {
  ChannelState& channel = channels_[channel_index];
  const DramDevice& device = *devices_[channel_index];
  const std::vector<PendingRequest>& slab = channel.slab;
  const uint32_t banks = dram_config_.org.banks;
  Cycle next_due = kNeverCycle;
  const uint64_t draining = DrainingSlots(channel, at, &next_due);
  uint64_t open = 0;
  for (uint32_t rank = 0; rank < dram_config_.org.ranks; ++rank) {
    open |= device.OpenBankMask(rank) << (rank * banks);
  }
  const uint64_t ready = channel.occupied & ~draining;
  RequestScan scan;
  // Every candidate is structurally legal (RD/WR on the open row, ACT on a
  // closed bank, PRE on an open one), so it is legal at `at` exactly when
  // EarliestCycle <= at, and that one value serves the pick and the memo.
  // A pass that picked freezes the pick (pick_seq 0): later candidates
  // only feed the memo. Pass 2 walks in seq order, so its first legal head
  // may freeze at once.
  uint64_t pick_seq = ~0ull;
  auto consider = [&](uint32_t index, const DdrCommand& cmd) {
    const Cycle earliest = device.EarliestCycle(cmd);
    scan.earliest = std::min(scan.earliest, earliest);
    if (earliest <= at && slab[index].seq < pick_seq) {
      scan.pick = index;
      scan.cmd = cmd;
      pick_seq = slab[index].seq;
    }
  };
  auto pass_picked = [&] {
    if (scan.pick != kNil) {
      pick_seq = 0;
    }
    return stop_at_pick && scan.pick != kNil;
  };

  // Pass 1 (FR): each open bank's oldest read hit and oldest write hit.
  const bool ap = !config_.open_page;  // Closed-page: auto-precharge.
  for (uint64_t m = ready & open; m != 0; m &= m - 1) {
    const uint32_t slot = static_cast<uint32_t>(__builtin_ctzll(m));
    const uint32_t rank = slot / banks;
    const uint32_t bank = slot % banks;
    BankQueue& queue = channel.banks[slot];
    const uint32_t open_row = *device.OpenRow(rank, bank);
    if (queue.hit_row != open_row) {
      FindHits(channel, queue, open_row);
    }
    if (queue.hits[0] != kNil) {
      consider(queue.hits[0], DdrCommand::Rd(rank, bank, slab[queue.hits[0]].coord.column, ap));
    }
    if (queue.hits[1] != kNil) {
      consider(queue.hits[1], DdrCommand::Wr(rank, bank, slab[queue.hits[1]].coord.column, ap));
    }
  }
  if (pass_picked()) {
    return scan;
  }

  // Pass 2 (FCFS): a closed bank may be activated only for its oldest
  // request (its list head), so a younger request cannot steal the bank.
  // Heads are walked oldest first, so a stopping walk asks the throttle
  // about exactly the heads an age-ordered scan reaches. A throttled head
  // counts and is released at the cycle the mitigation names.
  uint32_t heads[64];
  uint32_t head_count = 0;
  for (uint64_t m = ready & ~open; m != 0; m &= m - 1) {
    const uint32_t head = channel.banks[__builtin_ctzll(m)].head;
    uint32_t k = head_count++;
    for (; k > 0 && slab[heads[k - 1]].seq > slab[head].seq; --k) {
      heads[k] = heads[k - 1];
    }
    heads[k] = head;
  }
  for (uint32_t k = 0; k < head_count; ++k) {
    const DdrCoord& coord = slab[heads[k]].coord;
    if (mitigation_ != nullptr) {
      const Cycle allowed = mitigation_->ActAllowedAt(coord.rank, coord.bank, coord.row, at);
      if (allowed > at) {
        ++scan.throttled;
        scan.stalls += scan.pick == kNil ? 1 : 0;
        scan.earliest = std::min(scan.earliest, allowed);
        continue;
      }
    }
    consider(heads[k], DdrCommand::Act(coord.rank, coord.bank, coord.row));
    if (pass_picked()) {
      return scan;
    }
  }

  // Pass 3: PRE an open bank for its oldest request when that request
  // misses the open row. A bank whose head wants the open row is left
  // open: no older request may be starved by the PRE. Draining slots are
  // not skipped; closing rows is what draining wants.
  for (uint64_t m = channel.occupied & open; m != 0; m &= m - 1) {
    const uint32_t slot = static_cast<uint32_t>(__builtin_ctzll(m));
    const uint32_t rank = slot / banks;
    const uint32_t bank = slot % banks;
    const uint32_t head = channel.banks[slot].head;
    if (slab[head].coord.row != *device.OpenRow(rank, bank)) {
      consider(head, DdrCommand::Pre(rank, bank));
    }
  }
  // A slot that starts draining drops its throttled head from the count.
  if (scan.throttled != 0) {
    scan.earliest = std::min(scan.earliest, next_due);
  }
  scan.earliest = std::max(scan.earliest, at);
  return scan;
}

Cycle MemoryController::MemoAfterIssue(uint32_t channel_index, Cycle now) {
  ChannelState& channel = channels_[channel_index];
  bool rescan = !channel.internal_ops.empty();
  for (const Cycle due : channel.ref_due) {
    rescan |= due <= now + 1;
  }
  if (rescan) {
    channel.throttled_heads = 0;
    return channel.next_sched = 0;
  }
  const RequestScan scan = ScanRequests(channel_index, now + 1, /*stop_at_pick=*/false);
  channel.throttled_heads = scan.throttled;
  channel.throttle_from = now + 1;
  return channel.next_sched = scan.earliest;
}

void MemoryController::FindHits(const ChannelState& channel, BankQueue& bank, uint32_t row) {
  bank.hit_row = row;
  bank.hits[0] = kNil;
  bank.hits[1] = kNil;
  for (uint32_t i = bank.head; i != kNil; i = channel.slab[i].next) {
    const PendingRequest& pending = channel.slab[i];
    if (pending.coord.row != row) {
      continue;
    }
    uint32_t& hit = bank.hits[pending.request.op == MemOp::kRead ? 0 : 1];
    if (hit == kNil) {
      hit = i;
      if (bank.hits[0] != kNil && bank.hits[1] != kNil) {
        return;
      }
    }
  }
}

void MemoryController::IssueRequestAccess(uint32_t channel_index, uint32_t index, Cycle now) {
  ChannelState& channel = channels_[channel_index];
  DramDevice& device = *devices_[channel_index];
  PendingRequest& entry = channel.slab[index];
  // Copy out before the entry returns to the free list: the response
  // handler below may enqueue into it.
  const PendingRequest pending = entry;
  const uint32_t slot = pending.coord.rank * dram_config_.org.banks + pending.coord.bank;
  BankQueue& bank = channel.banks[slot];
  (entry.prev == kNil ? bank.head : channel.slab[entry.prev].next) = entry.next;
  (entry.next == kNil ? bank.tail : channel.slab[entry.next].prev) = entry.prev;
  uint32_t& hit = bank.hits[pending.request.op == MemOp::kRead ? 0 : 1];
  if (hit == index) {
    // The memo's hit left. No older entry of its kind hits `hit_row`, so
    // the next oldest one, if any, is younger than the departed entry.
    hit = kNil;
    for (uint32_t i = pending.next; i != kNil; i = channel.slab[i].next) {
      const PendingRequest& younger = channel.slab[i];
      if (younger.coord.row == bank.hit_row && younger.request.op == pending.request.op) {
        hit = i;
        break;
      }
    }
  }
  if (bank.head == kNil) {
    channel.occupied &= ~(1ull << slot);
  }
  entry.next = channel.free_head;
  channel.free_head = index;
  --channel.queued;

  MemResponse response;
  response.id = pending.request.id;
  response.op = pending.request.op;
  response.addr = pending.request.addr;
  response.requestor = pending.request.requestor;
  response.domain = pending.request.domain;
  response.is_dma = pending.request.is_dma;
  response.enqueue_cycle = pending.request.enqueue_cycle;

  if (pending.request.op == MemOp::kWrite) {
    device.WriteLine(pending.coord.rank, pending.coord.bank, pending.coord.row,
                     pending.coord.column, pending.request.write_value);
    // Writes are posted: complete as soon as the WR command issues.
    response.complete_cycle = now;
    c_writes_done_->Increment();
    h_write_latency_->Record(response.Latency());
    if (response_handler_) {
      response_handler_(response);
    }
    return;
  }

  // Reads complete when the burst finishes. Data is captured now — any
  // Rowhammer flip applied by an earlier ACT is already in the store.
  response.read_value =
      device.ReadLine(pending.coord.rank, pending.coord.bank, pending.coord.row,
                      pending.coord.column);
  InFlightRead in_flight;
  in_flight.ready = now + dram_config_.timing.tCL + dram_config_.timing.tBL;
  in_flight.response = response;
  channel.in_flight.push(in_flight);
  c_reads_done_->Increment();
}

void MemoryController::NotifyMitigationActivate(const DdrCoord& coord, Cycle now) {
  if (mitigation_ == nullptr) {
    return;
  }
  std::vector<NeighborRefreshRequest> refreshes;
  mitigation_->OnActivate(coord.rank, coord.bank, coord.row, now, refreshes);
  for (const NeighborRefreshRequest& refresh : refreshes) {
    EnqueueNeighborRefresh(refresh, coord.channel, now);
  }
}

void MemoryController::EnqueueNeighborRefresh(const NeighborRefreshRequest& refresh,
                                              uint32_t channel_index, Cycle now) {
  c_mitigation_refreshes_->Increment();
  const uint32_t blast = dram_config_.disturbance.blast_radius;
  HT_TRACE(trace_, now, TraceKind::kMitigationRefresh, static_cast<uint8_t>(channel_index),
           static_cast<uint8_t>(refresh.rank), static_cast<uint8_t>(refresh.bank),
           refresh.aggressor_row, blast);
  if (config_.use_ref_neighbors) {
    PushInternalOp(channel_index,
                   {.kind = InternalOpKind::kRefreshNeighbors,
                    .coord = DdrCoord{channel_index, refresh.rank, refresh.bank,
                                      refresh.aggressor_row, 0},
                    .blast = blast,
                    .requested = now},
                   "mc.mitigation_refresh_dropped");
    return;
  }
  // Without DRAM assistance the MC refreshes each *logical* neighbour row
  // with its own PRE+ACT pair. Vendor-internal remapping can defeat this —
  // exactly the imprecision §4.3's REF_NEIGHBORS proposal removes.
  const uint32_t rows_per_bank = dram_config_.org.rows_per_bank();
  for (uint32_t d = 1; d <= blast; ++d) {
    for (int sign = -1; sign <= 1; sign += 2) {
      const int64_t target = static_cast<int64_t>(refresh.aggressor_row) + sign * static_cast<int64_t>(d);
      if (target < 0 || target >= static_cast<int64_t>(rows_per_bank)) {
        continue;
      }
      if (!PushInternalOp(channel_index,
                          {.kind = InternalOpKind::kRefreshRow,
                           .coord = DdrCoord{channel_index, refresh.rank, refresh.bank,
                                             static_cast<uint32_t>(target), 0},
                           .requested = now},
                          "mc.mitigation_refresh_dropped")) {
        return;
      }
    }
  }
}

Cycle MemoryController::NextWake(Cycle now) const {
  Cycle wake = kNeverCycle;
  if (mitigation_ != nullptr) {
    wake = std::min(wake, next_epoch_);
  }
  for (const ChannelState& channel : channels_) {
    // Completions must drain at their exact ready cycle (latency stats
    // stamp the drain cycle), so the nearest one always joins the min.
    if (!channel.in_flight.empty()) {
      wake = std::min(wake, channel.in_flight.top().ready);
    }
    if (config_.event_driven) {
      // The channel memo is the exact next-issueable cycle under the
      // current state; it also tracks the nearest refresh due, so idle
      // channels wake for retention without a separate due scan. A state
      // change resets it to 0, which lands here as "wake now".
      wake = std::min(wake, std::max(now, channel.next_try));
      continue;
    }
    // Legacy: queued work may retry a blocked command every cycle.
    if (channel.queued != 0 || !channel.internal_ops.empty()) {
      return now;
    }
    for (const Cycle due : channel.ref_due) {
      wake = std::min(wake, due);
    }
  }
  return std::max(now, wake);
}

void MemoryController::SyncTelemetry() {
  ProfilePhase phase("mc.telemetry_sync");
  if (mitigation_ != nullptr) {
    const uint64_t probes = mitigation_->TableProbes();
    c_table_probes_->Add(probes - mitigation_probes_synced_);
    mitigation_probes_synced_ = probes;
  }
}

bool MemoryController::Idle() const {
  for (const ChannelState& channel : channels_) {
    if (channel.queued != 0 || !channel.internal_ops.empty() || !channel.in_flight.empty()) {
      return false;
    }
  }
  return true;
}

size_t MemoryController::QueuedRequests() const {
  size_t total = 0;
  for (const ChannelState& channel : channels_) {
    total += channel.queued;
  }
  return total;
}

void MemoryController::QueueInAgeOrder(uint32_t channel_index,
                                       std::vector<QueuedRequest>* out) const {
  const ChannelState& channel = channels_[channel_index];
  out->clear();
  for (const BankQueue& bank : channel.banks) {
    for (uint32_t i = bank.head; i != kNil; i = channel.slab[i].next) {
      const PendingRequest& pending = channel.slab[i];
      out->push_back({pending.seq, pending.request.op, pending.coord});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const QueuedRequest& a, const QueuedRequest& b) { return a.seq < b.seq; });
}

void MemoryController::InstallMitigation(std::unique_ptr<McMitigation> mitigation) {
  mitigation_ = std::move(mitigation);
}

void MemoryController::set_trace(TraceBuffer* trace) {
  trace_ = trace;
  for (auto& device : devices_) {
    device->set_trace(trace);
  }
  for (auto& counter : act_counters_) {
    counter->set_trace(trace);
  }
}

uint64_t MemoryController::TotalFlipEvents() const {
  uint64_t total = 0;
  for (const auto& device : devices_) {
    total += device->total_flip_events();
  }
  return total;
}

}  // namespace ht
