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

uint32_t MemoryController::EffectiveBlast() const {
  return config_.assumed_blast_radius != 0 ? config_.assumed_blast_radius
                                           : dram_config_.disturbance.blast_radius;
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
  ChannelState& channel = channels_[coord.channel];
  if (channel.internal_ops.size() >= kMaxInternalOps) {
    stats_.Add("mc.refresh_row_rejected");
    return false;
  }
  InternalOp op;
  op.kind = InternalOpKind::kRefreshRow;
  op.coord = coord;
  op.auto_precharge = auto_precharge;
  op.requested = now;
  op.addr = addr;
  op.done = std::move(done);
  channel.internal_ops.push_back(std::move(op));
  channel.next_try = 0;
  c_refresh_instr_->Increment();
  return true;
}

bool MemoryController::RefreshNeighbors(PhysAddr addr, uint32_t blast, Cycle now) {
  const DdrCoord coord = mapper_.Map(addr);
  ChannelState& channel = channels_[coord.channel];
  if (channel.internal_ops.size() >= kMaxInternalOps) {
    stats_.Add("mc.refresh_neighbors_rejected");
    return false;
  }
  InternalOp op;
  op.kind = InternalOpKind::kRefreshNeighbors;
  op.coord = coord;
  op.blast = blast;
  op.requested = now;
  op.addr = addr;
  channel.internal_ops.push_back(std::move(op));
  channel.next_try = 0;
  stats_.Add("mc.refresh_neighbors_cmds");
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

bool MemoryController::TryRefreshManager(uint32_t channel_index, Cycle now, Cycle& retry) {
  ChannelState& channel = channels_[channel_index];
  DramDevice& device = *devices_[channel_index];
  // A slot crossing its due cycle changes the scan (drain state, and
  // which slot is first-due), so the nearest future due always bounds the
  // retry. Dues at or before the first due slot are accumulated below;
  // later slots cannot steal "first due" from it, so they are ignored.
  Cycle next_due = kNeverCycle;
  if (dram_config_.retention.per_bank_refresh) {
    // DDR5-style: refresh one bank at a time; the rest keep serving.
    const uint32_t banks = dram_config_.org.banks;
    for (uint32_t slot = 0; slot < channel.ref_due.size(); ++slot) {
      if (now < channel.ref_due[slot]) {
        next_due = std::min(next_due, channel.ref_due[slot]);
        continue;
      }
      const uint32_t rank = slot / banks;
      const uint32_t bank = slot % banks;
      if (device.OpenRow(rank, bank).has_value()) {
        const DdrCommand pre = DdrCommand::Pre(rank, bank);
        if (device.Check(pre, now) == TimingVerdict::kOk) {
          device.Issue(pre, now);
          return true;
        }
        retry = std::min(next_due, device.EarliestCycle(pre));
        return false;
      }
      const DdrCommand refsb = DdrCommand::RefSb(rank, bank);
      if (device.Check(refsb, now) == TimingVerdict::kOk) {
        device.Issue(refsb, now);
        channel.ref_due[slot] += dram_config_.RefPeriod();
        c_refs_sb_issued_->Increment();
        return true;
      }
      retry = std::min(next_due, device.EarliestCycle(refsb));
      return false;
    }
    retry = next_due;
    return false;
  }
  for (uint32_t rank = 0; rank < dram_config_.org.ranks; ++rank) {
    if (now < channel.ref_due[rank]) {
      next_due = std::min(next_due, channel.ref_due[rank]);
      continue;
    }
    // Drain: close any open bank, then REF.
    if (device.OpenBankMask(rank) != 0) {
      const DdrCommand prea = DdrCommand::PreAll(rank);
      if (device.Check(prea, now) == TimingVerdict::kOk) {
        device.Issue(prea, now);
        return true;
      }
      retry = std::min(next_due, device.EarliestCycle(prea));
      return false;  // Wait for tRAS etc.; keep the bus quiet for this rank.
    }
    const DdrCommand ref = DdrCommand::Ref(rank);
    if (device.Check(ref, now) == TimingVerdict::kOk) {
      device.Issue(ref, now);
      channel.ref_due[rank] += dram_config_.RefPeriod();
      c_refs_issued_->Increment();
      return true;
    }
    retry = std::min(next_due, device.EarliestCycle(ref));
    return false;
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
  const bool op_draining =
      dram_config_.retention.per_bank_refresh
          ? now >= channel.ref_due[rank * dram_config_.org.banks + bank]
          : now >= channel.ref_due[rank];
  if (op_draining && !op.activated) {
    // Target is draining for REF; hold defense ops briefly. The hold ends
    // only when the overdue REF issues, which resets the channel memo, and
    // the refresh-manager retry already covers progress toward it — so no
    // retry cycle of our own (kNeverCycle).
    return false;
  }
  const auto open_row = device.OpenRow(rank, bank);

  switch (op.kind) {
    case InternalOpKind::kRefreshRow: {
      if (!op.activated) {
        if (open_row.has_value()) {
          const DdrCommand pre = DdrCommand::Pre(rank, bank);
          if (device.Check(pre, now) == TimingVerdict::kOk) {
            device.Issue(pre, now);
            return true;
          }
          retry = device.EarliestCycle(pre);
          return false;
        }
        const DdrCommand act = DdrCommand::Act(rank, bank, op.coord.row);
        if (device.Check(act, now) == TimingVerdict::kOk) {
          device.Issue(act, now);
          // Refresh ACTs are not attributed to any RD/WR; they still
          // increment the raw ACT counter like real ACT_COUNT would.
          act_counters_[channel_index]->OnActivate(op.addr, kInvalidDomain, false, now);
          op.activated = true;
          c_refresh_instr_acts_->Increment();
          if (!op.auto_precharge) {
            if (op.done) {
              op.done({op.addr, op.requested, now});
            }
            channel.internal_ops.pop_front();
          }
          return true;
        }
        retry = device.EarliestCycle(act);
        return false;
      }
      // Awaiting the auto-precharge.
      const DdrCommand pre = DdrCommand::Pre(rank, bank);
      if (device.Check(pre, now) == TimingVerdict::kOk) {
        device.Issue(pre, now);
        if (op.done) {
          op.done({op.addr, op.requested, now});
        }
        channel.internal_ops.pop_front();
        return true;
      }
      retry = device.EarliestCycle(pre);
      return false;
    }
    case InternalOpKind::kRefreshNeighbors: {
      if (open_row.has_value()) {
        const DdrCommand pre = DdrCommand::Pre(rank, bank);
        if (device.Check(pre, now) == TimingVerdict::kOk) {
          device.Issue(pre, now);
          return true;
        }
        retry = device.EarliestCycle(pre);
        return false;
      }
      const DdrCommand refn = DdrCommand::RefNeighbors(rank, bank, op.coord.row, op.blast);
      if (device.Check(refn, now) == TimingVerdict::kOk) {
        device.Issue(refn, now);
        channel.internal_ops.pop_front();
        return true;
      }
      retry = device.EarliestCycle(refn);
      return false;
    }
  }
  return false;
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
  DramDevice& device = *devices_[channel_index];
  std::vector<PendingRequest>& slab = channel.slab;
  const uint32_t banks = dram_config_.org.banks;
  const uint64_t draining = DrainingSlots(channel, now);
  uint64_t open = 0;
  for (uint32_t rank = 0; rank < dram_config_.org.ranks; ++rank) {
    open |= device.OpenBankMask(rank) << (rank * banks);
  }
  const uint64_t ready = channel.occupied & ~draining;

  // The pick so far: the smallest-seq candidate whose command is legal.
  uint32_t pick = kNil;
  uint64_t pick_seq = ~0ull;
  DdrCommand pick_cmd;

  // Pass 1 (FR): oldest row hit whose RD/WR is legal now.
  const bool ap = !config_.open_page;  // Closed-page: auto-precharge.
  for (uint64_t m = ready & open; m != 0; m &= m - 1) {
    const uint32_t slot = static_cast<uint32_t>(__builtin_ctzll(m));
    const uint32_t rank = slot / banks;
    const uint32_t bank = slot % banks;
    const uint32_t open_row = *device.OpenRow(rank, bank);
    BankQueue& queue = channel.banks[slot];
    if (queue.hit_row != open_row) {
      FindHits(channel, queue, open_row);
    }
    for (int k = 0; k < 2; ++k) {
      const uint32_t hit = queue.hits[k];
      if (hit == kNil || slab[hit].seq > pick_seq) {
        continue;
      }
      const PendingRequest& pending = slab[hit];
      const DdrCommand cmd = k == 0 ? DdrCommand::Rd(rank, bank, pending.coord.column, ap)
                                    : DdrCommand::Wr(rank, bank, pending.coord.column, ap);
      if (device.Check(cmd, now) == TimingVerdict::kOk) {
        pick = hit;
        pick_seq = pending.seq;
        pick_cmd = cmd;
      }
    }
  }
  if (pick != kNil) {
    ReportDecision(channel_index, now,
                   {.issued = true, .command = pick_cmd.type, .seq = pick_seq});
    device.Issue(pick_cmd, now);
    if (!slab[pick].counted) {
      c_row_hits_->Increment();  // Served without its own ACT.
    }
    IssueRequestAccess(channel_index, pick, now);
    retry = MemoAfterIssue(channel_index, now);
    return true;
  }

  // Pass 2 (FCFS): a closed bank may be activated only for its oldest
  // request (its list head), so a younger request cannot steal the bank.
  // Heads are tried oldest first, so the throttle is asked about exactly
  // the heads an age-ordered scan reaches.
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
  uint32_t throttle_stalls = 0;
  for (uint32_t k = 0; k < head_count; ++k) {
    const PendingRequest& pending = slab[heads[k]];
    if (mitigation_ != nullptr &&
        mitigation_->ActAllowedAt(pending.coord.rank, pending.coord.bank, pending.coord.row,
                                  now) > now) {
      ++throttle_stalls;
      continue;
    }
    const DdrCommand act =
        DdrCommand::Act(pending.coord.rank, pending.coord.bank, pending.coord.row);
    if (device.Check(act, now) == TimingVerdict::kOk) {
      pick = heads[k];
      pick_seq = pending.seq;
      pick_cmd = act;
      break;
    }
  }
  c_throttle_stalls_->Add(throttle_stalls);
  if (pick != kNil) {
    ReportDecision(channel_index, now,
                   {.issued = true,
                    .command = pick_cmd.type,
                    .seq = pick_seq,
                    .throttle_stalls = throttle_stalls});
    PendingRequest& pending = slab[pick];
    device.Issue(pick_cmd, now);
    if (!pending.counted) {
      c_row_misses_->Increment();
      pending.counted = true;
    }
    act_counters_[channel_index]->OnActivate(pending.request.addr, pending.request.domain,
                                             pending.request.is_dma, now);
    NotifyMitigationActivate(pending.coord, now);
    retry = MemoAfterIssue(channel_index, now);
    return true;
  }

  // Pass 3: PRE an open bank for its oldest request when that request
  // misses the open row. A bank whose head wants the open row is left
  // open: no older request may be starved by the PRE. Draining slots are
  // not skipped; closing rows is what draining wants.
  for (uint64_t m = channel.occupied & open; m != 0; m &= m - 1) {
    const uint32_t slot = static_cast<uint32_t>(__builtin_ctzll(m));
    const PendingRequest& head = slab[channel.banks[slot].head];
    if (head.seq > pick_seq || head.coord.row == *device.OpenRow(slot / banks, slot % banks)) {
      continue;
    }
    const DdrCommand pre = DdrCommand::Pre(slot / banks, slot % banks);
    if (device.Check(pre, now) == TimingVerdict::kOk) {
      pick = channel.banks[slot].head;
      pick_seq = head.seq;
      pick_cmd = pre;
    }
  }
  if (pick != kNil) {
    ReportDecision(channel_index, now,
                   {.issued = true,
                    .command = pick_cmd.type,
                    .seq = pick_seq,
                    .throttle_stalls = throttle_stalls});
    device.Issue(pick_cmd, now);
    if (!slab[pick].counted) {
      c_row_conflicts_->Increment();
      slab[pick].counted = true;
    }
    retry = MemoAfterIssue(channel_index, now);
    return true;
  }
  // Nothing issued: every candidate is timing-blocked or throttled, and
  // the scan met every throttled head. Candidates filtered for non-timing
  // reasons (draining slots, claimed banks, a head pinning its open row)
  // can only unblock via a state change, which lowers or resets the memo.
  const RequestOutlook outlook = ProbeRequests(channel_index, now);
  channel.next_sched = std::max(outlook.earliest, now + 1);
  channel.throttled_heads = outlook.throttled;
  channel.throttle_from = now + 1;
  retry = channel.next_sched;
  ReportDecision(channel_index, now, {.retry = retry, .throttle_stalls = throttle_stalls});
  return false;
}

MemoryController::RequestOutlook MemoryController::ProbeRequests(uint32_t channel_index,
                                                                 Cycle from) {
  ChannelState& channel = channels_[channel_index];
  const DramDevice& device = *devices_[channel_index];
  const std::vector<PendingRequest>& slab = channel.slab;
  const uint32_t banks = dram_config_.org.banks;
  Cycle next_due = kNeverCycle;
  const uint64_t draining = DrainingSlots(channel, from, &next_due);
  uint64_t open = 0;
  for (uint32_t rank = 0; rank < dram_config_.org.ranks; ++rank) {
    open |= device.OpenBankMask(rank) << (rank * banks);
  }
  const uint64_t ready = channel.occupied & ~draining;
  RequestOutlook outlook;
  Cycle& earliest = outlook.earliest;
  const bool ap = !config_.open_page;
  // Pass 1 candidates: each open bank's oldest read hit and write hit.
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
      earliest = std::min(earliest, device.EarliestCycle(DdrCommand::Rd(
                                        rank, bank, slab[queue.hits[0]].coord.column, ap)));
    }
    if (queue.hits[1] != kNil) {
      earliest = std::min(earliest, device.EarliestCycle(DdrCommand::Wr(
                                        rank, bank, slab[queue.hits[1]].coord.column, ap)));
    }
  }
  // Pass 2 candidates: closed banks' heads, unless throttled; a throttled
  // head counts and is released at the cycle the mitigation names.
  for (uint64_t m = ready & ~open; m != 0; m &= m - 1) {
    const DdrCoord& coord = slab[channel.banks[__builtin_ctzll(m)].head].coord;
    if (mitigation_ != nullptr) {
      const Cycle allowed = mitigation_->ActAllowedAt(coord.rank, coord.bank, coord.row, from);
      if (allowed > from) {
        ++outlook.throttled;
        earliest = std::min(earliest, allowed);
        continue;
      }
    }
    earliest =
        std::min(earliest, device.EarliestCycle(DdrCommand::Act(coord.rank, coord.bank, coord.row)));
  }
  // Pass 3 candidates: open banks' heads that miss the open row.
  for (uint64_t m = channel.occupied & open; m != 0; m &= m - 1) {
    const uint32_t slot = static_cast<uint32_t>(__builtin_ctzll(m));
    const uint32_t rank = slot / banks;
    const uint32_t bank = slot % banks;
    if (slab[channel.banks[slot].head].coord.row != *device.OpenRow(rank, bank)) {
      earliest = std::min(earliest, device.EarliestCycle(DdrCommand::Pre(rank, bank)));
    }
  }
  // A slot that starts draining drops its throttled head from the count.
  if (outlook.throttled != 0) {
    earliest = std::min(earliest, next_due);
  }
  earliest = std::max(earliest, from);
  return outlook;
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
  const RequestOutlook outlook = ProbeRequests(channel_index, now + 1);
  channel.throttled_heads = outlook.throttled;
  channel.throttle_from = now + 1;
  return channel.next_sched = outlook.earliest;
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
  if (bank.hits[pending.request.op == MemOp::kRead ? 0 : 1] == index) {
    bank.hit_row = kNil;  // The memo's hit left; recompute on the next scan.
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
  ChannelState& channel = channels_[channel_index];
  c_mitigation_refreshes_->Increment();
  const uint32_t blast = EffectiveBlast();
  HT_TRACE(trace_, now, TraceKind::kMitigationRefresh, static_cast<uint8_t>(channel_index),
           static_cast<uint8_t>(refresh.rank), static_cast<uint8_t>(refresh.bank),
           refresh.aggressor_row, blast);
  if (config_.use_ref_neighbors) {
    if (channel.internal_ops.size() >= kMaxInternalOps) {
      stats_.Add("mc.mitigation_refresh_dropped");
      return;
    }
    InternalOp op;
    op.kind = InternalOpKind::kRefreshNeighbors;
    op.coord = DdrCoord{channel_index, refresh.rank, refresh.bank, refresh.aggressor_row, 0};
    op.blast = blast;
    op.requested = now;
    channel.internal_ops.push_back(std::move(op));
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
      if (channel.internal_ops.size() >= kMaxInternalOps) {
        stats_.Add("mc.mitigation_refresh_dropped");
        return;
      }
      InternalOp op;
      op.kind = InternalOpKind::kRefreshRow;
      op.coord =
          DdrCoord{channel_index, refresh.rank, refresh.bank, static_cast<uint32_t>(target), 0};
      op.auto_precharge = true;
      op.requested = now;
      channel.internal_ops.push_back(std::move(op));
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
