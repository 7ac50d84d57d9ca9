#include "mc/controller.h"

#include <algorithm>

#include "common/log.h"
#include "common/telemetry/profile.h"

namespace ht {

MemoryController::MemoryController(const DramConfig& dram_config, const McConfig& mc_config)
    : dram_config_(dram_config), config_(mc_config), mapper_(dram_config.org, mc_config.scheme) {
  const uint32_t channels = dram_config_.org.channels;
  devices_.reserve(channels);
  act_counters_.reserve(channels);
  channels_.resize(channels);
  const bool per_bank = dram_config_.retention.per_bank_refresh;
  for (uint32_t c = 0; c < channels; ++c) {
    devices_.push_back(std::make_unique<DramDevice>(dram_config_, c));
    act_counters_.push_back(std::make_unique<ActCounter>(c, config_.act_counter));
    if (per_bank) {
      // One due-clock per (rank, bank), staggered so REFsb commands spread
      // evenly instead of bursting.
      const uint32_t slots = dram_config_.org.ranks * dram_config_.org.banks;
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
  if (channel.queue.size() >= config_.queue_capacity) {
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
  MemRequest stamped = request;
  stamped.enqueue_cycle = now;
  channel.queue.push_back({stamped, coord, false});
  channel.next_sched = 0;
  channel.next_try = 0;
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
  Cycle refresh_retry = kNeverCycle;
  Cycle internal_retry = kNeverCycle;
  Cycle request_retry = kNeverCycle;
  if (TryRefreshManager(channel_index, now, refresh_retry)) {
    channel.next_sched = 0;
    channel.next_try = 0;
    return true;
  }
  if (TryInternalOps(channel_index, now, internal_retry)) {
    channel.next_sched = 0;
    channel.next_try = 0;
    return true;
  }
  if (TryRequests(channel_index, now, request_retry)) {
    channel.next_try = 0;
    return true;
  }
  // Nothing issued. Every stage's retry is exact under unchanged channel
  // state, and every state change resets the memo, so skipping straight
  // to the minimum cannot miss an issue. The refresh retry always covers
  // the nearest future due (dues recede forever), keeping this finite.
  channel.next_try = std::max(std::min({refresh_retry, internal_retry, request_retry}), now + 1);
  return false;
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

bool MemoryController::TryRequests(uint32_t channel_index, Cycle now, Cycle& retry) {
  ChannelState& channel = channels_[channel_index];
  if (channel.queue.empty()) {
    return false;  // retry stays kNeverCycle: an enqueue resets the memo.
  }
  if (now < channel.next_sched) {
    // Memoized from the last failed scan: channel state is unchanged
    // (every mutation resets next_sched) and no blocked command becomes
    // legal before next_sched, so the scan below would fail identically.
    retry = channel.next_sched;
    return false;
  }
  DramDevice& device = *devices_[channel_index];
  // Earliest cycle any candidate blocked purely by timing becomes legal.
  Cycle block = kNeverCycle;
  // A throttled candidate was seen: ActAllowedAt counts throttle events
  // per scanned cycle, so the scan must rerun every cycle to stay exact.
  bool unstable = false;

  // Ranks (or, in per-bank mode, individual banks) with an overdue REF
  // are draining: starting new row activity there would starve the
  // refresh manager (and eventually retention).
  const bool per_bank = dram_config_.retention.per_bank_refresh;
  uint64_t draining = 0;
  for (uint32_t slot = 0; slot < channel.ref_due.size(); ++slot) {
    if (now >= channel.ref_due[slot]) {
      draining |= 1ull << slot;
    }
  }
  const uint32_t banks = dram_config_.org.banks;
  const auto rank_draining = [draining, per_bank, banks](uint32_t rank) {
    if (!per_bank) {
      return (draining & (1ull << rank)) != 0;
    }
    // In per-bank mode a draining bank does not drain its whole rank.
    return false;
  };
  const auto bank_draining = [draining, per_bank, banks](uint32_t rank, uint32_t bank) {
    if (!per_bank) {
      return false;
    }
    return (draining & (1ull << (rank * banks + bank))) != 0;
  };

  // Pass 1 (FR): oldest row-hit whose RD/WR is legal now.
  for (size_t i = 0; i < channel.queue.size(); ++i) {
    PendingRequest& pending = channel.queue[i];
    const auto open_row = device.OpenRow(pending.coord.rank, pending.coord.bank);
    if (rank_draining(pending.coord.rank) ||
        bank_draining(pending.coord.rank, pending.coord.bank) || !open_row.has_value() ||
        *open_row != pending.coord.row) {
      continue;
    }
    const bool ap = !config_.open_page;  // Closed-page: auto-precharge.
    const DdrCommand cmd = pending.request.op == MemOp::kRead
                               ? DdrCommand::Rd(pending.coord.rank, pending.coord.bank,
                                                pending.coord.column, ap)
                               : DdrCommand::Wr(pending.coord.rank, pending.coord.bank,
                                                pending.coord.column, ap);
    if (device.Check(cmd, now) == TimingVerdict::kOk) {
      device.Issue(cmd, now);
      if (!pending.counted) {
        c_row_hits_->Increment();  // Served without its own ACT.
      }
      IssueRequestAccess(channel_index, i, now);
      channel.next_sched = 0;
      return true;
    }
    block = std::min(block, device.EarliestCycle(cmd));
  }

  // Pass 2 (FCFS): oldest request to a closed bank — ACT (unless throttled).
  // Track banks already claimed by an older request so a younger request
  // cannot steal the bank.
  uint64_t claimed_banks = 0;
  for (size_t i = 0; i < channel.queue.size(); ++i) {
    PendingRequest& pending = channel.queue[i];
    const uint64_t bank_bit = 1ULL
                              << (pending.coord.rank * dram_config_.org.banks + pending.coord.bank);
    if ((claimed_banks & bank_bit) != 0) {
      continue;
    }
    claimed_banks |= bank_bit;
    if (rank_draining(pending.coord.rank) ||
        bank_draining(pending.coord.rank, pending.coord.bank)) {
      continue;
    }
    const auto open_row = device.OpenRow(pending.coord.rank, pending.coord.bank);
    if (open_row.has_value()) {
      continue;  // Handled in pass 3.
    }
    if (mitigation_ != nullptr) {
      const Cycle allowed = mitigation_->ActAllowedAt(pending.coord.rank, pending.coord.bank,
                                                      pending.coord.row, now);
      if (allowed > now) {
        c_throttle_stalls_->Increment();
        unstable = true;
        continue;
      }
    }
    const DdrCommand act =
        DdrCommand::Act(pending.coord.rank, pending.coord.bank, pending.coord.row);
    if (device.Check(act, now) == TimingVerdict::kOk) {
      device.Issue(act, now);
      if (!pending.counted) {
        c_row_misses_->Increment();
        pending.counted = true;
      }
      act_counters_[channel_index]->OnActivate(pending.request.addr, pending.request.domain,
                                               pending.request.is_dma, now);
      NotifyMitigationActivate(pending.coord, now);
      channel.next_sched = 0;
      return true;
    }
    block = std::min(block, device.EarliestCycle(act));
  }

  // Pass 3: oldest conflicting request — PRE the bank if no older request
  // still wants the open row.
  for (size_t i = 0; i < channel.queue.size(); ++i) {
    PendingRequest& pending = channel.queue[i];
    const auto open_row = device.OpenRow(pending.coord.rank, pending.coord.bank);
    if (!open_row.has_value() || *open_row == pending.coord.row) {
      continue;
    }
    bool older_wants_open_row = false;
    for (size_t j = 0; j < i; ++j) {
      const PendingRequest& other = channel.queue[j];
      if (other.coord.rank == pending.coord.rank && other.coord.bank == pending.coord.bank &&
          other.coord.row == *open_row) {
        older_wants_open_row = true;
        break;
      }
    }
    if (older_wants_open_row) {
      continue;
    }
    const DdrCommand pre = DdrCommand::Pre(pending.coord.rank, pending.coord.bank);
    if (device.Check(pre, now) == TimingVerdict::kOk) {
      device.Issue(pre, now);
      if (!pending.counted) {
        c_row_conflicts_->Increment();
        pending.counted = true;
      }
      channel.next_sched = 0;
      return true;
    }
    block = std::min(block, device.EarliestCycle(pre));
  }
  // Nothing issued. Candidates filtered for non-timing reasons (draining
  // ranks, claimed banks, an older request pinning an open row) can only
  // unblock via a state change, which resets next_sched; timing-blocked
  // candidates unblock at `block`.
  channel.next_sched = unstable ? now + 1 : std::max(block, now + 1);
  retry = channel.next_sched;
  return false;
}

void MemoryController::IssueRequestAccess(uint32_t channel_index, size_t queue_index, Cycle now) {
  ChannelState& channel = channels_[channel_index];
  DramDevice& device = *devices_[channel_index];
  PendingRequest pending = std::move(channel.queue[queue_index]);
  channel.queue.erase(channel.queue.begin() + static_cast<ptrdiff_t>(queue_index));

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
    if (!channel.queue.empty() || !channel.internal_ops.empty()) {
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
    if (!channel.queue.empty() || !channel.internal_ops.empty() || !channel.in_flight.empty()) {
      return false;
    }
  }
  return true;
}

size_t MemoryController::QueuedRequests() const {
  size_t total = 0;
  for (const ChannelState& channel : channels_) {
    total += channel.queue.size();
  }
  return total;
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
