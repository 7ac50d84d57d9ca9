// E13 — google-benchmark microbenchmarks of the simulator's hot paths,
// plus a whole-system throughput report (BENCH_throughput.json). The
// microbenches guard against regressions that would make the experiment
// suite impractically slow; they do not correspond to a paper figure.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cpu/cache.h"
#include "dram/device.h"
#include "mc/addrmap.h"
#include "mc/controller.h"
#include "mc/mitigations.h"
#include "sim/scenario.h"

namespace ht {
namespace {

void BM_AddressMap(benchmark::State& state) {
  const auto scheme = static_cast<InterleaveScheme>(state.range(0));
  AddressMapper mapper(DramConfig::SimDefault().org, scheme);
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.MapLine(line));
    line = (line + 97) % mapper.total_lines();
  }
}
BENCHMARK(BM_AddressMap)->DenseRange(0, 3)->Name("AddressMapper/MapLine");

void BM_DisturbanceOnActivate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  DisturbanceParams params = config.disturbance;
  params.blast_radius = static_cast<uint32_t>(state.range(0));
  BankDisturbance bank(config.org, params);
  std::vector<DisturbanceVictim> victims;
  uint32_t row = 1;
  for (auto _ : state) {
    bank.OnActivate(row, victims);
    victims.clear();
    row = (row + 3) % config.org.rows_per_bank();
  }
}
BENCHMARK(BM_DisturbanceOnActivate)->Arg(1)->Arg(2)->Arg(4)->Name("Disturbance/OnActivate");

void BM_TimingCheckAndRecord(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  TimingChecker checker(config.org, config.timing, true);
  Cycle now = 0;
  uint32_t bank = 0;
  uint32_t row = 0;
  for (auto _ : state) {
    const DdrCommand act = DdrCommand::Act(0, bank, row);
    now = std::max(now + 1, checker.EarliestCycle(act));
    checker.Record(act, now);
    const DdrCommand pre = DdrCommand::Pre(0, bank);
    now = std::max(now + 1, checker.EarliestCycle(pre));
    checker.Record(pre, now);
    bank = (bank + 1) % config.org.banks;
    row = (row + 7) % config.org.rows_per_bank();
  }
}
BENCHMARK(BM_TimingCheckAndRecord)->Name("Timing/ActPrePair");

void BM_CacheLookup(benchmark::State& state) {
  Cache cache(CacheConfig{});
  for (PhysAddr addr = 0; addr < 4096 * kLineBytes; addr += kLineBytes) {
    cache.Fill(addr, addr, false);
  }
  PhysAddr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(addr));
    addr = (addr + 193 * kLineBytes) % (8192 * kLineBytes);
  }
}
BENCHMARK(BM_CacheLookup)->Name("Cache/Lookup");

void BM_GrapheneOnActivate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  GrapheneConfig graphene_config;
  graphene_config.table_entries = static_cast<uint32_t>(state.range(0));
  GrapheneMitigation graphene(config.org, config.disturbance, graphene_config);
  std::vector<NeighborRefreshRequest> out;
  uint32_t row = 0;
  Cycle now = 0;
  for (auto _ : state) {
    graphene.OnActivate(0, 0, row, ++now, out);
    out.clear();
    row = (row + 11) % 997;
  }
}
BENCHMARK(BM_GrapheneOnActivate)->Arg(64)->Arg(256)->Name("Graphene/OnActivate");

void BM_BlockHammerGate(benchmark::State& state) {
  const DramConfig config = DramConfig::SimDefault();
  BlockHammerMitigation blockhammer(config.org, config.retention, config.disturbance,
                                    BlockHammerConfig{});
  uint32_t row = 0;
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(blockhammer.ActAllowedAt(0, 0, row, ++now));
    row = (row + 5) % 1024;
  }
}
BENCHMARK(BM_BlockHammerGate)->Name("BlockHammer/ActAllowedAt");

void BM_ControllerTick(benchmark::State& state) {
  MemoryController mc(DramConfig::SimDefault(), McConfig{});
  Rng rng(1);
  Cycle now = 0;
  uint64_t id = 0;
  for (auto _ : state) {
    if (mc.QueuedRequests() < 16) {
      MemRequest request;
      request.id = ++id;
      request.op = MemOp::kRead;
      request.addr = rng.NextBelow(1u << 20) * kLineBytes;
      mc.Enqueue(request, now);
    }
    mc.Tick(now++);
  }
}
BENCHMARK(BM_ControllerTick)->Name("Controller/TickUnderLoad");

// --- Whole-system simulation throughput -----------------------------------
//
// Measures simulated cycles per wall-clock second on an idle-heavy system
// (no instruction streams; only the refresh manager is periodically
// active) with idle skipping on and off, and writes the numbers to
// BENCH_throughput.json. This is the scenario the idle-skipping fast
// path exists for, and the report is what CI trend lines consume.

struct ThroughputSample {
  double seconds = 0.0;
  double cycles_per_sec = 0.0;
  uint64_t scans = 0;  // mc.wake_batches: channel scheduling scans.
  uint64_t ticks = 0;  // System::component_ticks: component Tick calls.
};

ThroughputSample MeasureIdleHeavy(bool skip_idle, Cycle cycles) {
  SystemConfig config;
  config.skip_idle = skip_idle;
  System system(config);
  const auto start = std::chrono::steady_clock::now();
  system.RunFor(cycles);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

// The run with the median wall time among `repeats` runs of `measure`.
ThroughputSample MedianOf(int repeats, const std::function<ThroughputSample()>& measure) {
  std::vector<ThroughputSample> samples;
  for (int i = 0; i < repeats; ++i) {
    samples.push_back(measure());
  }
  std::sort(samples.begin(), samples.end(),
            [](const ThroughputSample& a, const ThroughputSample& b) {
              return a.seconds < b.seconds;
            });
  return samples[samples.size() / 2];
}

void WriteThroughputReport(int repeats) {
  // Idle skipping runs ~1000x faster, so it simulates more cycles to keep
  // its wall time (the speedup's divisor) well above timer noise.
  const Cycle off_cycles = std::min<Cycle>(30000000, BenchSmokeCap());
  const Cycle on_cycles = std::min<Cycle>(4000000000, BenchSmokeCap());
  const ThroughputSample off =
      MedianOf(repeats, [&] { return MeasureIdleHeavy(false, off_cycles); });
  const ThroughputSample on = MedianOf(repeats, [&] { return MeasureIdleHeavy(true, on_cycles); });
  const double speedup = off.cycles_per_sec > 0.0 ? on.cycles_per_sec / off.cycles_per_sec : 0.0;

  FILE* out = std::fopen("BENCH_throughput.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_throughput.json");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"idle_heavy\",\n"
               "  \"skip_idle_off\": {\"simulated_cycles\": %llu, \"wall_seconds\": %.6f, "
               "\"cycles_per_sec\": %.0f},\n"
               "  \"skip_idle_on\": {\"simulated_cycles\": %llu, \"wall_seconds\": %.6f, "
               "\"cycles_per_sec\": %.0f},\n"
               "  \"speedup\": %.2f,\n"
               "  \"host\": {\"cores\": %u, \"repeats\": %d}\n"
               "}\n",
               static_cast<unsigned long long>(off_cycles), off.seconds, off.cycles_per_sec,
               static_cast<unsigned long long>(on_cycles), on.seconds, on.cycles_per_sec, speedup,
               std::thread::hardware_concurrency(), repeats);
  std::fclose(out);
  std::printf("System/IdleHeavy: skip off %.0f cyc/s, skip on %.0f cyc/s (%.1fx); "
              "wrote BENCH_throughput.json (median of %d run(s))\n",
              off.cycles_per_sec, on.cycles_per_sec, speedup, repeats);
}

// --- Busy-phase scheduling throughput ---------------------------------------
//
// The counterpart of the idle-heavy report: hammer-heavy load whose MC
// queues are almost never empty, so idle skipping alone cannot help.
// Measures simulated cycles per wall-clock second with the event-driven
// busy-phase scheduler (exact NextWake from the timing tables, memo-gated
// channel scans, interval-accounted core stalls) off and on, and writes
// BENCH_busy.json. Command streams and stats are bit-identical between
// the two modes (tests/test_event_scheduling.cc holds that line), so this
// is a pure scheduling-overhead comparison. Three scenarios:
//
//  * mc_hammer_loop — the controller driven directly with a saturating
//    same-bank row-conflict stream, the clock advanced by NextWake (event)
//    or per-cycle (legacy). Isolates the busy-phase scheduler: every
//    skipped cycle is a dead rescan the legacy mode pays for.
//  * mc_dma_queue — the controller kept 64 requests deep with reads to
//    random rows over all banks, the DMA-attack queue shape. Scheduling
//    cost here grows with queue depth unless the FR-FCFS passes are
//    indexed by bank; mc_hammer_loop's 2-deep queue cannot show that.
//  * system_hammer — the whole-system version (hammer core + streaming
//    co-runner); cores and caches dilute the MC win, so this bounds the
//    end-to-end benefit the way E1 wall-clock does.
//
// Each series is the median of --repeats=N runs (default 1); the report
// records N and the host's core count under "host", which the trend gate
// ignores.

// The next cycle a loop that keeps the controller `depth` requests deep
// must run. The loop is a requestor too: while the queue has room it
// refills on the next cycle, so it must wake then even when the MC, whose
// next command is not due yet, would sleep; System likewise joins every
// component's wake.
Cycle NextLoopCycle(const MemoryController& mc, bool event_driven, Cycle now, size_t depth) {
  if (!event_driven || mc.QueuedRequests() < depth) {
    return now + 1;
  }
  return std::max(now + 1, mc.NextWake(now));
}

ThroughputSample MeasureMcHammerLoop(bool event_driven, Cycle cycles) {
  McConfig config;
  config.event_driven = event_driven;
  MemoryController mc(DramConfig::SimDefault(), config);

  // Three same-bank rows cycled at queue depth 2: no two queued requests
  // ever share a row, so every access is a row conflict forcing its own
  // PRE+ACT at tRC spacing — the classic hammer loop. The channel is
  // timing-blocked between commands while the queue stays full, which is
  // exactly the busy phase the event scheduler targets.
  const AddressMapper& mapper = mc.mapper();
  std::vector<PhysAddr> aggressors;
  uint32_t last_row = ~0u;
  for (PhysAddr addr = 0;
       aggressors.size() < 3 && addr < mapper.total_lines() * kLineBytes; addr += kLineBytes) {
    const DdrCoord coord = mapper.Map(addr);
    if (coord.channel == 0 && coord.rank == 0 && coord.bank == 0 && coord.row != last_row) {
      aggressors.push_back(addr);
      last_row = coord.row;
    }
  }

  uint64_t id = 0;
  size_t cursor = 0;
  const auto start = std::chrono::steady_clock::now();
  for (Cycle now = 0; now < cycles;) {
    while (mc.QueuedRequests() < 2) {
      MemRequest request;
      request.id = ++id;
      request.op = MemOp::kRead;
      request.addr = aggressors[cursor++ % aggressors.size()];
      if (!mc.Enqueue(request, now)) {
        break;
      }
    }
    mc.Tick(now);
    now = NextLoopCycle(mc, event_driven, now, 2);
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

ThroughputSample MeasureMcDmaQueue(bool event_driven, Cycle cycles, uint64_t* served) {
  McConfig config;
  config.event_driven = event_driven;
  MemoryController mc(DramConfig::SimDefault(), config);
  const uint64_t lines = mc.mapper().total_lines();
  Rng rng(0xD3A);
  uint64_t id = 0;
  const auto start = std::chrono::steady_clock::now();
  for (Cycle now = 0; now < cycles;) {
    while (mc.QueuedRequests() < config.queue_capacity) {
      MemRequest request;
      request.id = ++id;
      request.op = MemOp::kRead;
      request.addr = rng.NextBelow(lines) * kLineBytes;
      request.is_dma = true;
      if (!mc.Enqueue(request, now)) {
        break;
      }
    }
    mc.Tick(now);
    now = NextLoopCycle(mc, event_driven, now, config.queue_capacity);
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  *served = mc.stats().Get("mc.reads_done");
  ThroughputSample sample;
  sample.scans = mc.stats().Get("mc.wake_batches");
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

ThroughputSample MeasureHammerHeavy(bool event_driven, Cycle cycles) {
  SystemConfig config;
  config.cores = 2;
  config.core.window = 2;  // Tight window: the cores lean on the MC.
  config.mc.event_driven = event_driven;
  config.core.event_driven = event_driven;
  System system(config);
  auto tenants = SetupTenants(system, 2, /*pages_each=*/512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  HammerConfig hammer;
  if (plan.has_value()) {
    hammer.aggressors = plan->aggressor_vas;
  }
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.AssignCore(1, tenants[1],
                    MakeWorkload("stream", tenants[1], AddressSpace::BaseFor(tenants[1]),
                                 512 * kPageBytes, /*total_ops=*/~0ull >> 1, 8));
  const auto start = std::chrono::steady_clock::now();
  system.RunFor(cycles);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  ThroughputSample sample;
  sample.scans = system.mc().stats().Get("mc.wake_batches");
  sample.ticks = system.component_ticks();
  sample.seconds = elapsed.count();
  sample.cycles_per_sec =
      sample.seconds > 0.0 ? static_cast<double>(cycles) / sample.seconds : 0.0;
  return sample;
}

struct BusySeries {
  Cycle cycles = 0;
  ThroughputSample off;
  ThroughputSample on;
  double speedup() const {
    return off.cycles_per_sec > 0.0 ? on.cycles_per_sec / off.cycles_per_sec : 0.0;
  }
};

BusySeries MeasureBusySeries(int repeats, Cycle cycles,
                             const std::function<ThroughputSample(bool, Cycle)>& measure) {
  BusySeries series;
  series.cycles = cycles;
  series.off = MedianOf(repeats, [&] { return measure(false, cycles); });
  series.on = MedianOf(repeats, [&] { return measure(true, cycles); });
  return series;
}

void WriteBusyReport(int repeats) {
  const BusySeries mc = MeasureBusySeries(repeats, std::min<Cycle>(8000000, BenchSmokeCap()),
                                          MeasureMcHammerLoop);
  uint64_t dma_served_off = 0;
  uint64_t dma_served_on = 0;
  const BusySeries dma = MeasureBusySeries(
      repeats, std::min<Cycle>(400000, BenchSmokeCap()), [&](bool event_driven, Cycle cycles) {
        return MeasureMcDmaQueue(event_driven, cycles,
                                 event_driven ? &dma_served_on : &dma_served_off);
      });
  if (dma_served_off != dma_served_on) {
    std::fprintf(stderr, "mc_dma_queue: event-driven served %llu requests, per-cycle %llu\n",
                 static_cast<unsigned long long>(dma_served_on),
                 static_cast<unsigned long long>(dma_served_off));
    std::exit(1);
  }
  const BusySeries sys = MeasureBusySeries(repeats, std::min<Cycle>(4000000, BenchSmokeCap()),
                                           MeasureHammerHeavy);

  FILE* out = std::fopen("BENCH_busy.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_busy.json");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"mc_hammer_loop\",\n"
               "  \"simulated_cycles\": %llu,\n"
               "  \"event_driven_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"event_driven_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "  \"speedup\": %.2f,\n"
               "  \"mc_dma_queue\": {\n"
               "    \"simulated_cycles\": %llu,\n"
               "    \"requests_served\": %llu,\n"
               "    \"scans\": %llu,\n"
               "    \"event_driven_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "    \"event_driven_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "    \"speedup\": %.2f\n"
               "  },\n"
               "  \"system_hammer\": {\n"
               "    \"simulated_cycles\": %llu,\n"
               "    \"scans\": %llu,\n"
               "    \"ticks\": %llu,\n"
               "    \"event_driven_off\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "    \"event_driven_on\": {\"wall_seconds\": %.6f, \"cycles_per_sec\": %.0f},\n"
               "    \"speedup\": %.2f\n"
               "  },\n"
               "  \"host\": {\"cores\": %u, \"repeats\": %d}\n"
               "}\n",
               static_cast<unsigned long long>(mc.cycles), mc.off.seconds,
               mc.off.cycles_per_sec, mc.on.seconds, mc.on.cycles_per_sec, mc.speedup(),
               static_cast<unsigned long long>(dma.cycles),
               static_cast<unsigned long long>(dma_served_on),
               static_cast<unsigned long long>(dma.on.scans), dma.off.seconds,
               dma.off.cycles_per_sec, dma.on.seconds, dma.on.cycles_per_sec, dma.speedup(),
               static_cast<unsigned long long>(sys.cycles),
               static_cast<unsigned long long>(sys.on.scans),
               static_cast<unsigned long long>(sys.on.ticks), sys.off.seconds,
               sys.off.cycles_per_sec, sys.on.seconds, sys.on.cycles_per_sec, sys.speedup(),
               std::thread::hardware_concurrency(), repeats);
  std::fclose(out);
  for (const auto& [name, series] : {std::pair{"MC/HammerLoop", &mc}, std::pair{"MC/DmaQueue", &dma},
                                     std::pair{"System/HammerHeavy", &sys}}) {
    std::printf("%s: %llu cycles — event off %.0f cyc/s, event on %.0f cyc/s (%.1fx)\n", name,
                static_cast<unsigned long long>(series->cycles), series->off.cycles_per_sec,
                series->on.cycles_per_sec, series->speedup());
  }
  std::printf("wrote BENCH_busy.json (median of %d run(s) per series)\n", repeats);
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  // --repeats=N (ours, stripped before google-benchmark parses the rest):
  // each throughput and busy-report series is the median of N runs.
  int repeats = 1;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
      repeats = std::max(1, std::atoi(argv[i] + 10));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ht::WriteThroughputReport(repeats);
  ht::WriteBusyReport(repeats);
  return 0;
}
