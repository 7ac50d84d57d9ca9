#include "sim/system.h"

#include <algorithm>

#include "common/log.h"

namespace ht {

const char* ToString(AllocPolicy policy) {
  switch (policy) {
    case AllocPolicy::kLinear:
      return "linear";
    case AllocPolicy::kBankAware:
      return "bank-aware";
    case AllocPolicy::kGuardRows:
      return "guard-rows";
    case AllocPolicy::kSubarrayAware:
      return "subarray-aware";
  }
  return "?";
}

System::System(const SystemConfig& config) : config_(config) {
  mc_ = std::make_unique<MemoryController>(config_.dram, config_.mc);
  allocator_ = MakeAllocator();
  kernel_ = std::make_unique<HostKernel>(mc_.get(), allocator_.get());
  llc_ = std::make_unique<Cache>(config_.cache);
  cores_.reserve(config_.cores);
  core_wake_.assign(config_.cores, 0);
  for (uint32_t i = 0; i < config_.cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, kInvalidDomain, config_.core, llc_.get(),
                                            mc_.get()));
  }

  // Route MC completions back to the issuing core; DMA reads are
  // fire-and-forget.
  mc_->set_response_handler([this](const MemResponse& response) {
    if (response.requestor < cores_.size()) {
      cores_[response.requestor]->OnResponse(response, now_);
      PokeCore(response.requestor);
    }
  });

  if (config_.telemetry.trace != nullptr) {
    mc_->set_trace(config_.telemetry.trace);
    kernel_->set_trace(config_.telemetry.trace, &now_);
  }
  sampler_ = StatSampler(config_.telemetry.sample_every);
  if (sampler_.enabled()) {
    sampler_.AddSource("", &mc_->stats());
    for (uint32_t c = 0; c < mc_->channels(); ++c) {
      // Per-channel device stats share metric names; prefix by channel.
      sampler_.AddSource("ch" + std::to_string(c), &mc_->device(c).stats());
    }
    sampler_.AddSource("", &kernel_->stats());
    sampler_.AddSource("llc", &llc_->stats());
    sample_next_ = sampler_.NextSampleCycle();
  }
}

std::unique_ptr<FrameAllocator> System::MakeAllocator() const {
  const AddressMapper& mapper = mc_->mapper();
  switch (config_.alloc) {
    case AllocPolicy::kLinear:
      return std::make_unique<LinearAllocator>(mapper.total_lines() / kLinesPerPage);
    case AllocPolicy::kBankAware:
      return std::make_unique<BankAwareAllocator>(mapper);
    case AllocPolicy::kGuardRows:
      return std::make_unique<GuardRowAllocator>(mapper, config_.guard_domains,
                                                 config_.guard_blast);
    case AllocPolicy::kSubarrayAware:
      return std::make_unique<SubarrayAwareAllocator>(mapper);
  }
  return nullptr;
}

void System::AssignCore(uint32_t index, DomainId domain, std::unique_ptr<InstructionStream> stream,
                        bool is_host) {
  // Rebuild the core with the right domain/privilege; streams and
  // translation hook in afterwards.
  CoreConfig core_config = config_.core;
  core_config.is_host = is_host;
  cores_[index] = std::make_unique<Core>(index, domain, core_config, llc_.get(), mc_.get());
  cores_[index]->set_translate(kernel_->TranslatorFor(domain));
  cores_[index]->set_miss_observer([this](const MissEvent& event) {
    if (defense_ != nullptr) {
      defense_->OnMiss(event, now_);
    }
  });
  cores_[index]->set_wake_hook([this, index] { PokeCore(index); });
  cores_[index]->set_stream(std::move(stream));
  core_wake_[index] = 0;
}

void System::AssignMuxCore(uint32_t index, DomainId carrier_domain,
                           std::unique_ptr<InstructionStream> stream) {
  AssignCore(index, carrier_domain, std::move(stream));
  cores_[index]->set_translate(kernel_->MuxTranslator());
  cores_[index]->set_domain_resolver(
      [](VirtAddr va) { return HostKernel::DomainOfVa(va); });
}

DmaEngine& System::AddDma(DomainId domain, const DmaConfig& dma_config) {
  const RequestorId id = 1000 + static_cast<RequestorId>(dmas_.size());
  dmas_.push_back(std::make_unique<DmaEngine>(id, domain, dma_config, mc_.get()));
  dma_wake_.push_back(0);
  return *dmas_.back();
}

void System::InstallDefense(std::unique_ptr<Defense> defense) {
  defense_ = std::move(defense);
  if (defense_ != nullptr) {
    // Arm the ACT interrupt route only when something listens.
    mc_->SetActInterruptHandler([this](const ActInterrupt& irq) {
      if (defense_ != nullptr) {
        defense_->OnActInterrupt(irq, now_);
      }
    });
    defense_->set_trace(config_.telemetry.trace);
    defense_->Attach(kernel_.get(), llc_.get());
    if (sampler_.enabled()) {
      sampler_.AddSource("", &defense_->stats());
    }
  }
}

void System::Step(Cycle end) {
  if (now_ >= sample_next_) [[unlikely]] {
    // Stamped at the boundary cycle even if ticking overshot it (cannot
    // happen while the step's wake includes sample_next_, but stay exact).
    // The sampler reads the MC StatSet directly.
    mc_->SyncTelemetry();
    mc_->SyncThrottleStalls(now_);
    while (now_ >= sample_next_) {
      sampler_.Sample(sample_next_);
      sample_next_ += sampler_.period();
    }
  }
  if (!config_.skip_idle) {
    // The reference loop: every component, every cycle.
    mc_->Tick(now_);
    for (auto& core : cores_) {
      core->Tick(now_);
    }
    for (auto& dma : dmas_) {
      dma->Tick(now_);
    }
    if (defense_ != nullptr) {
      defense_->Tick(now_);
    }
    component_ticks_ += 1 + cores_.size() + dmas_.size() + (defense_ != nullptr ? 1 : 0);
    ++now_;
    return;
  }

  // The wake calendar. Every component's Tick is provably a no-op strictly
  // before its NextWake cycle, so ticking only the due ones and jumping the
  // clock to the earliest wake changes nothing: same stats, same flips,
  // fewer calls. With tracing on the MC ticks every step: without a
  // mitigation its epoch-rollover records are not part of NextWake, yet
  // must land at the first step past each boundary, in order with the
  // other components' records.
  if (mc_wake_ <= now_ || config_.telemetry.trace != nullptr) {
    mc_->Tick(now_);  // Responses and refresh completions poke cores.
    ++component_ticks_;
  }
  for (size_t i = 0; i < cores_.size(); ++i) {
    if (core_wake_[i] <= now_) {
      cores_[i]->Tick(now_);
      ++component_ticks_;
    }
  }
  for (size_t i = 0; i < dmas_.size(); ++i) {
    if (dma_wake_[i] <= now_) {
      dmas_[i]->Tick(now_);
      ++component_ticks_;
    }
  }
  // The defense is ticked and polled every step: CacheLockDefense prunes
  // its quarantine on ticks its NextWake does not advertise.
  if (defense_ != nullptr) {
    defense_->Tick(now_);
    ++component_ticks_;
  }
  ++now_;
  // Any tick may enqueue, so the MC's wake is re-read every step. A core
  // or DMA engine can only change its wake by ticking or being poked, and
  // either leaves its entry at or before the step's cycle: those entries,
  // and only those, are re-read. Entries past it are still exact.
  mc_wake_ = mc_->NextWake(now_);
  // Sample deadlines join the min so idle skipping lands the clock on
  // exact k*period boundaries — skip and tick runs yield identical series.
  Cycle wake = std::min(mc_wake_, sample_next_);
  for (size_t i = 0; i < cores_.size(); ++i) {
    if (core_wake_[i] < now_) {
      core_wake_[i] = cores_[i]->NextWake(now_);
    }
    wake = std::min(wake, core_wake_[i]);
  }
  for (size_t i = 0; i < dmas_.size(); ++i) {
    if (dma_wake_[i] < now_) {
      dma_wake_[i] = dmas_[i]->NextWake(now_);
    }
    wake = std::min(wake, dma_wake_[i]);
  }
  if (defense_ != nullptr) {
    wake = std::min(wake, defense_->NextWake(now_));
  }
  if (wake > now_) {
    now_ = std::min(wake, end);
  }
}

void System::RunFor(Cycle cycles) {
  // Host code may have enqueued, refreshed or remapped between runs.
  mc_wake_ = 0;
  const Cycle end = now_ + cycles;
  while (now_ < end) {
    Step(end);
  }
  mc_->SyncThrottleStalls(now_);
}

void System::RunUntilQuiesced(Cycle max_cycles) {
  mc_wake_ = 0;  // As in RunFor.
  const Cycle end = now_ + max_cycles;
  while (now_ < end) {
    bool all_halted = true;
    for (auto& core : cores_) {
      if (!core->halted() || core->outstanding() != 0) {
        all_halted = false;
        break;
      }
    }
    if (all_halted && mc_->Idle()) {
      break;
    }
    Step(end);
  }
  mc_->SyncThrottleStalls(now_);
}

void System::DrainCaches() {
  llc_->WritebackAll([this](PhysAddr addr, uint64_t value) {
    const DdrCoord coord = mc_->mapper().Map(addr);
    mc_->device(coord.channel)
        .WriteLine(coord.rank, coord.bank, coord.row, coord.column, value);
  });
}

uint64_t System::TotalOpsCompleted() const {
  uint64_t total = 0;
  for (const auto& core : cores_) {
    total += core->ops_completed();
  }
  return total;
}

double System::RowHitRate() const {
  const uint64_t hits = mc_->stats().Get("mc.row_hits");
  const uint64_t misses =
      mc_->stats().Get("mc.row_misses") + mc_->stats().Get("mc.row_conflicts");
  return hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

double System::AvgReadLatency() const {
  const Histogram* histogram = mc_->stats().GetHistogram("mc.read_latency");
  return histogram == nullptr ? 0.0 : histogram->Mean();
}

double System::P99ReadLatency() const {
  const Histogram* histogram = mc_->stats().GetHistogram("mc.read_latency");
  return histogram == nullptr ? 0.0 : static_cast<double>(histogram->Quantile(0.99));
}

StatSet System::CollectStats() const {
  // Fold lazily-accounted telemetry (open stall and throttle intervals,
  // mitigation table probes) into the component stat sets before merging.
  // All are idempotent, so repeated collection stays exact.
  for (const auto& core : cores_) {
    core->SyncStallStats(now_);
  }
  mc_->SyncTelemetry();
  mc_->SyncThrottleStalls(now_);
  StatSet merged;
  merged.MergeFrom(mc_->stats());
  for (uint32_t c = 0; c < mc_->channels(); ++c) {
    merged.MergeFrom(mc_->device(c).stats());
    merged.MergeFrom(mc_->device(c).ecc_stats());
  }
  merged.MergeFrom(llc_->stats());
  for (const auto& core : cores_) {
    merged.MergeFrom(core->stats());
  }
  for (const auto& dma : dmas_) {
    merged.MergeFrom(dma->stats());
  }
  merged.MergeFrom(kernel_->stats());
  if (defense_ != nullptr) {
    merged.MergeFrom(defense_->stats());
  }
  return merged;
}

}  // namespace ht
