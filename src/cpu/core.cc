#include "cpu/core.h"

#include "common/log.h"

namespace ht {

Core::Core(RequestorId id, DomainId domain, const CoreConfig& config, Cache* cache,
           MemoryController* mc)
    : id_(id), domain_(domain), config_(config), cache_(cache), mc_(mc),
      window_(config.window) {
  c_fence_stalls_ = stats_.counter("core.fence_stalls");
  c_window_stalls_ = stats_.counter("core.window_stalls");
  c_translation_faults_ = stats_.counter("core.translation_faults");
  c_flushes_ = stats_.counter("core.flushes");
  c_load_hits_ = stats_.counter("core.load_hits");
  c_store_hits_ = stats_.counter("core.store_hits");
  c_load_misses_ = stats_.counter("core.load_misses");
  c_store_misses_ = stats_.counter("core.store_misses");
  c_mc_backpressure_ = stats_.counter("core.mc_backpressure");
  h_miss_latency_ = stats_.histogram("core.miss_latency");
}

void Core::set_stream(std::unique_ptr<InstructionStream> stream) {
  stream_ = std::move(stream);
  if (stream_ != nullptr) {
    window_ = std::min(config_.window, std::max(1u, stream_->IlpHint()));
    halted_ = false;
  }
}

Cycle Core::NextWake(Cycle now) const {
  if (!stalled_writebacks_.empty()) {
    return now;  // Retries the MC every cycle.
  }
  if (halted_ || stream_ == nullptr || refresh_pending_) {
    // Nothing to do until an MC-side event (response/refresh completion),
    // and the MC's own NextWake covers those.
    return kNeverCycle;
  }
  if (config_.event_driven && (window_stalled_ || fence_stalled_)) {
    // Blocked on outstanding responses; OnResponse reopens the gate, and
    // the MC's NextWake covers the completion that delivers it. Stall
    // cycles are interval-accounted, so sleeping loses no stats.
    return kNeverCycle;
  }
  // Issuable as soon as the issue gate opens.
  return std::max(now, next_issue_);
}

void Core::Tick(Cycle now) {
  // Retry writebacks the MC rejected earlier (queue backpressure).
  while (!stalled_writebacks_.empty()) {
    if (!mc_->Enqueue(stalled_writebacks_.front(), now)) {
      break;
    }
    stalled_writebacks_.pop_front();
  }

  if (halted_ || stream_ == nullptr || now < next_issue_ || refresh_pending_) {
    return;
  }
  if (window_stalled_ || fence_stalled_) {
    return;  // Interval is open; the unblocking OnResponse closes it.
  }
  if (fence_pending_) {
    if (outstanding_ != 0) {
      fence_stalled_ = true;
      fence_stall_since_ = now;
      return;
    }
    fence_pending_ = false;
  }
  if (!current_op_.has_value()) {
    current_op_ = stream_->Next();
  }
  Execute(*current_op_, now);
}

void Core::SyncStallStats(Cycle now) {
  if (window_stalled_) {
    c_window_stalls_->Add(now - window_stall_since_);
    window_stall_since_ = now;
  }
  if (fence_stalled_) {
    c_fence_stalls_->Add(now - fence_stall_since_);
    fence_stall_since_ = now;
  }
}

void Core::Execute(const CoreOp& op, Cycle now) {
  switch (op.kind) {
    case CoreOpKind::kHalt:
      halted_ = true;
      current_op_.reset();
      return;
    case CoreOpKind::kIdle:
      next_issue_ = now + op.idle_cycles;
      ++ops_completed_;
      current_op_.reset();
      return;
    case CoreOpKind::kFence:
      fence_pending_ = true;
      ++ops_completed_;
      current_op_.reset();
      return;
    case CoreOpKind::kLoad:
    case CoreOpKind::kStore: {
      if (outstanding_ >= window_) {
        // One stall interval covers every cycle until a response frees a
        // window slot; equivalent to the per-cycle count a cycle-accurate
        // tick loop would produce (the op and issue gate are frozen).
        window_stalled_ = true;
        window_stall_since_ = now;
        return;
      }
      const auto pa = translate_ ? translate_(op.va) : std::optional<PhysAddr>(op.va);
      if (!pa.has_value()) {
        c_translation_faults_->Increment();
        ++ops_completed_;
        current_op_.reset();
        return;
      }
      if (IssueAccess(op, *pa, now)) {
        ++ops_completed_;
        current_op_.reset();
      }
      return;
    }
    case CoreOpKind::kFlush: {
      const auto pa = translate_ ? translate_(op.va) : std::optional<PhysAddr>(op.va);
      if (pa.has_value()) {
        const CacheAccessResult result = cache_->Flush(*pa, config_.is_host);
        if (result.writeback) {
          EnqueueWriteback(result.writeback_addr, result.writeback_value, now);
        }
      }
      c_flushes_->Increment();
      next_issue_ = now + config_.flush_latency;
      ++ops_completed_;
      current_op_.reset();
      return;
    }
    case CoreOpKind::kRefreshRow: {
      if (!config_.is_host) {
        // §4.3: "refresh should be a host-privileged instruction".
        stats_.Add("core.refresh_priv_faults");
        ++ops_completed_;
        current_op_.reset();
        return;
      }
      const auto pa = translate_ ? translate_(op.va) : std::optional<PhysAddr>(op.va);
      if (!pa.has_value()) {
        c_translation_faults_->Increment();
        ++ops_completed_;
        current_op_.reset();
        return;
      }
      const bool accepted = mc_->RefreshRow(*pa, op.auto_precharge, now,
                                            [this](const RefreshDone&) {
                                              refresh_pending_ = false;
                                              if (wake_hook_) {
                                                wake_hook_();
                                              }
                                            });
      if (!accepted) {
        stats_.Add("core.refresh_retries");
        return;  // MC internal queue full; retry next cycle.
      }
      refresh_pending_ = true;
      stats_.Add("core.refresh_instrs");
      ++ops_completed_;
      current_op_.reset();
      return;
    }
    case CoreOpKind::kLockLine:
    case CoreOpKind::kUnlockLine: {
      const auto pa = translate_ ? translate_(op.va) : std::optional<PhysAddr>(op.va);
      if (pa.has_value()) {
        if (op.kind == CoreOpKind::kLockLine) {
          if (!cache_->Lock(*pa)) {
            stats_.Add("core.lock_failures");
          }
        } else {
          cache_->Unlock(*pa);
        }
      }
      next_issue_ = now + 2;
      ++ops_completed_;
      current_op_.reset();
      return;
    }
  }
}

bool Core::IssueAccess(const CoreOp& op, PhysAddr pa, Cycle now) {
  if (op.kind == CoreOpKind::kLoad) {
    const auto hit = cache_->Lookup(pa);
    if (hit.has_value()) {
      next_issue_ = now + cache_->config().hit_latency;
      c_load_hits_->Increment();
      return true;
    }
  } else {
    if (cache_->StoreHit(pa, op.value)) {
      next_issue_ = now + cache_->config().hit_latency;
      c_store_hits_->Increment();
      return true;
    }
  }

  // Miss: fetch the line. Stores write-allocate — the fill completes the
  // store with the new value.
  const DomainId domain = domain_resolver_ ? domain_resolver_(op.va) : domain_;
  MemRequest request;
  request.id = NextRequestId();
  request.op = MemOp::kRead;
  request.addr = pa / kLineBytes * kLineBytes;
  request.requestor = id_;
  request.domain = domain;
  if (!mc_->Enqueue(request, now)) {
    c_mc_backpressure_->Increment();
    return false;  // Retry next cycle.
  }
  if (op.kind == CoreOpKind::kStore) {
    pending_stores_[request.id] = {op.value};
    c_store_misses_->Increment();
  } else {
    c_load_misses_->Increment();
  }
  ++outstanding_;
  next_issue_ = now + 1;
  if (miss_observer_) {
    miss_observer_({id_, domain,
                    request.addr,
                    op.kind == CoreOpKind::kStore ? MemOp::kWrite : MemOp::kRead, now});
  }
  return true;
}

void Core::EnqueueWriteback(PhysAddr addr, uint64_t value, Cycle now) {
  MemRequest writeback;
  writeback.id = NextRequestId();
  writeback.op = MemOp::kWrite;
  writeback.addr = addr;
  writeback.write_value = value;
  writeback.requestor = id_;
  // Writebacks carry only the physical victim address, so a mux core
  // cannot recover the owning tenant here; they keep the carrier core's
  // domain (host-attributed eviction traffic, like real uncore WBs).
  writeback.domain = domain_;
  if (!mc_->Enqueue(writeback, now)) {
    stalled_writebacks_.push_back(writeback);
  }
}

void Core::OnResponse(const MemResponse& response, Cycle now) {
  if (response.op == MemOp::kWrite) {
    return;  // Posted writebacks need no action.
  }
  uint64_t fill_value = response.read_value;
  bool dirty = false;
  auto store = pending_stores_.find(response.id);
  if (store != pending_stores_.end()) {
    fill_value = store->second.value;
    dirty = true;
    pending_stores_.erase(store);
  }
  const CacheAccessResult fill = cache_->Fill(response.addr, fill_value, dirty);
  if (fill.writeback) {
    EnqueueWriteback(fill.writeback_addr, fill.writeback_value, now);
  }
  if (outstanding_ > 0) {
    --outstanding_;
  }
  if (window_stalled_ && outstanding_ < window_) {
    c_window_stalls_->Add(now - window_stall_since_);
    window_stalled_ = false;
  }
  if (fence_stalled_ && outstanding_ == 0) {
    c_fence_stalls_->Add(now - fence_stall_since_);
    fence_stalled_ = false;
  }
  h_miss_latency_->Record(response.Latency());
}

}  // namespace ht
