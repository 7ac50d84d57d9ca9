// Full-system wiring: cores + shared LLC + DMA engines + memory
// controller + DRAM + host kernel + an optional software defense, driven
// by a single DRAM-clock cycle loop.
#ifndef HAMMERTIME_SRC_SIM_SYSTEM_H_
#define HAMMERTIME_SRC_SIM_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/telemetry/sampler.h"
#include "common/telemetry/trace.h"
#include "common/types.h"
#include "cpu/cache.h"
#include "cpu/core.h"
#include "cpu/dma.h"
#include "defense/defense.h"
#include "dram/config.h"
#include "mc/controller.h"
#include "os/allocator.h"
#include "os/kernel.h"

namespace ht {

enum class AllocPolicy : uint8_t {
  kLinear,
  kBankAware,
  kGuardRows,
  kSubarrayAware,
};

const char* ToString(AllocPolicy policy);

// Observability knobs. Off by default: a null trace buffer and a zero
// sample period cost one predictable branch each on the hot path.
struct TelemetryConfig {
  // Borrowed buffer (owned by a TraceSink); nullptr = tracing off. The
  // System fans it out to the MC, devices, ACT counters, kernel, and the
  // installed defense, so one scenario's events share one buffer.
  TraceBuffer* trace = nullptr;
  // Snapshot all component StatSets every N cycles; 0 = sampling off.
  // Samples land on exact k*N boundaries whether or not skip_idle is on.
  Cycle sample_every = 0;
};

struct SystemConfig {
  DramConfig dram = DramConfig::SimDefault();
  McConfig mc;
  CacheConfig cache;
  CoreConfig core;
  uint32_t cores = 4;
  AllocPolicy alloc = AllocPolicy::kLinear;
  // GuardRows needs the expected tenant count and radius up front.
  uint32_t guard_domains = 4;
  uint32_t guard_blast = 2;
  // Fast-forward the clock across provably idle stretches (cycles where
  // no component's Tick could change state or emit a stat), ticking only
  // the components that are due (the wake calendar, see System::Step).
  // Produces bit-identical results to per-cycle ticking; disable to
  // cross-check.
  bool skip_idle = true;
  TelemetryConfig telemetry;
};

class System {
 public:
  explicit System(const SystemConfig& config);

  // --- Setup ------------------------------------------------------------

  DomainId AddDomain(const DomainSpec& spec) { return kernel_->CreateDomain(spec); }

  // Binds core `index` to a domain and instruction stream. This is the one
  // way to give a core new work: the wake calendar (see Step) re-reads a
  // core only after it ticks, is poked by the MC, or is reassigned here.
  void AssignCore(uint32_t index, DomainId domain, std::unique_ptr<InstructionStream> stream,
                  bool is_host = false);

  // Binds core `index` as a multiplexing carrier for many tenants: VAs
  // are translated (and MC-side domain accounting tagged) through the
  // domain encoded in each VA, so thousands of trust domains can share a
  // handful of cores. `carrier_domain` is the domain charged for traffic
  // with no recoverable tenant (writebacks).
  void AssignMuxCore(uint32_t index, DomainId carrier_domain,
                     std::unique_ptr<InstructionStream> stream);

  DmaEngine& AddDma(DomainId domain, const DmaConfig& dma_config);

  void InstallDefense(std::unique_ptr<Defense> defense);
  Defense* defense() { return defense_.get(); }

  // --- Run --------------------------------------------------------------

  void RunFor(Cycle cycles);
  // Runs until every core halted and the MC drained, or `max_cycles`.
  void RunUntilQuiesced(Cycle max_cycles);
  Cycle now() const { return now_; }
  // Tick calls made so far (MC, cores, DMA engines, defense): an exact work
  // counter for the step loop, kept out of CollectStats so reports do not
  // depend on how the loop schedules its components.
  uint64_t component_ticks() const { return component_ticks_; }

  // Writes back all dirty LLC lines to DRAM (end-of-run accounting before
  // golden verification).
  void DrainCaches();

  // --- Access -----------------------------------------------------------

  HostKernel& kernel() { return *kernel_; }
  MemoryController& mc() { return *mc_; }
  Cache& llc() { return *llc_; }
  Core& core(uint32_t index) { return *cores_[index]; }
  uint32_t core_count() const { return static_cast<uint32_t>(cores_.size()); }
  FrameAllocator& allocator() { return *allocator_; }
  const SystemConfig& config() const { return config_; }

  // Aggregate run metrics.
  uint64_t TotalOpsCompleted() const;
  uint64_t TotalFlips() const { return mc_->TotalFlipEvents(); }
  double RowHitRate() const;
  double AvgReadLatency() const;
  // Tail (p99) read latency — the cloud benchmarks' victim-facing metric:
  // mitigations that throttle or migrate under attack show up here long
  // before they dent the mean.
  double P99ReadLatency() const;

  // --- Telemetry ---------------------------------------------------------

  const StatSampler& sampler() const { return sampler_; }

  // One StatSet merging every component's stats (MC, per-channel devices
  // and their ECC counters, LLC, cores, DMA engines, kernel, defense) for
  // end-of-run reports. Per-channel counters sum together.
  StatSet CollectStats() const;

 private:
  std::unique_ptr<FrameAllocator> MakeAllocator() const;

  // Advances the clock by one step. With idle skipping off it ticks every
  // component at now_ and moves to now_ + 1. With it on it ticks only the
  // components due at now_ (the wake calendar) and jumps straight to the
  // earliest wake, clamped to `end`.
  void Step(Cycle end);
  // Marks core `index` due: an MC event changed what its NextWake returns.
  void PokeCore(uint32_t index) { core_wake_[index] = 0; }

  SystemConfig config_;
  std::unique_ptr<MemoryController> mc_;
  std::unique_ptr<FrameAllocator> allocator_;
  std::unique_ptr<HostKernel> kernel_;
  std::unique_ptr<Cache> llc_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<DmaEngine>> dmas_;
  std::unique_ptr<Defense> defense_;
  Cycle now_ = 0;
  // The wake calendar: each component's NextWake as of its last tick or
  // poke (0 = due). Exact after every step; see Step for the invariant.
  Cycle mc_wake_ = 0;
  std::vector<Cycle> core_wake_;
  std::vector<Cycle> dma_wake_;
  uint64_t component_ticks_ = 0;
  StatSampler sampler_;
  Cycle sample_next_ = kNeverCycle;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_SYSTEM_H_
