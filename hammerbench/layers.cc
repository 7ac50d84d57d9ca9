// Per-layer numbers: microbenches that call one layer's public functions
// directly, the per-layer metric table of a traced pass, and its Chrome
// trace export.
#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cpu/cache.h"
#include "mc/controller.h"
#include "os/tenant.h"
#include "sim/scenario.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace hb {
namespace {

// xorshift64: a fixed, seed-free input stream for the microbenches.
uint64_t NextRandom(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

double PhaseSeconds(const ht::JsonValue& profile, const char* phase) {
  const ht::JsonValue* phases = profile.Find("phases");
  const ht::JsonValue* entry = phases == nullptr ? nullptr : phases->Find(phase);
  const ht::JsonValue* seconds = entry == nullptr ? nullptr : entry->Find("seconds");
  return seconds == nullptr ? 0.0 : seconds->as_double();
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

uint64_t DramCommands(const ht::StatSet& stats) {
  uint64_t total = 0;
  for (const char* name : {"dram.acts", "dram.pres", "dram.preas", "dram.reads", "dram.writes",
                           "dram.refs", "dram.refs_sb", "dram.ref_neighbors"}) {
    total += stats.Get(name);
  }
  return total;
}

bool MicrobenchOk(const MicrobenchResult& result) {
  return result.expected > 0 && result.done == result.expected && result.value > 0.0;
}

MicrobenchResult RunMcQueueMicrobench(uint32_t depth, uint64_t reads) {
  const ht::DramConfig dram = ht::DramConfig::SimDefault();
  ht::MemoryController mc(dram, ht::McConfig{});
  uint64_t completed = 0;
  mc.set_response_handler([&completed](const ht::MemResponse&) { ++completed; });

  // Hammer shape: two rows of one bank, so every read conflicts. DMA
  // shape: reads over all banks drawn from four rows each, so the queue
  // holds row hits and conflicts side by side.
  std::vector<ht::PhysAddr> addrs(reads);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < reads; ++i) {
    ht::DdrCoord coord;
    if (depth <= 2) {
      coord.row = i % 2 == 0 ? 100 : 102;
    } else {
      const uint64_t r = NextRandom(state);
      coord.rank = static_cast<uint32_t>(r % dram.org.ranks);
      coord.bank = static_cast<uint32_t>((r >> 8) % dram.org.banks);
      coord.row = static_cast<uint32_t>(64 + 2 * ((r >> 16) % 4));
      coord.column = static_cast<uint32_t>((r >> 24) % dram.org.columns);
    }
    addrs[i] = mc.mapper().AddrOf(coord);
  }

  ht::Cycle now = 0;
  uint64_t issued = 0;
  const Clock::time_point start = Clock::now();
  while (completed < reads) {
    while (issued < reads && issued - completed < depth) {
      ht::MemRequest request;
      request.id = issued + 1;
      request.addr = addrs[issued];
      request.domain = 1;
      request.enqueue_cycle = now;
      if (!mc.Enqueue(request, now)) {
        break;
      }
      ++issued;
    }
    mc.Tick(now);
    const bool refill = issued < reads && issued - completed < depth;
    now = refill ? now + 1 : std::max(now + 1, mc.NextWake(now + 1));
  }
  const double seconds = SecondsBetween(start, Clock::now());

  uint64_t commands = 0;
  for (uint32_t c = 0; c < mc.channels(); ++c) {
    commands += DramCommands(mc.device(c).stats());
  }
  MicrobenchResult result;
  result.name = depth <= 2 ? "mc.q2_ns_per_cmd" : "mc.q64_ns_per_cmd";
  result.unit = "ns";
  result.value = Ratio(seconds * 1e9, static_cast<double>(commands));
  result.expected = reads;
  result.done = mc.stats().Get("mc.reads_done");
  return result;
}

MicrobenchResult RunCacheLookupMicrobench(uint64_t lookups) {
  ht::Cache cache(ht::CacheConfig{});
  const uint64_t lines = static_cast<uint64_t>(cache.config().sets) * cache.config().ways;
  for (uint64_t line = 0; line < lines; ++line) {
    cache.Fill(line * ht::kLineBytes, line, /*dirty=*/false);
  }
  // Lines [0, lines) are resident and [lines, 2 * lines) absent, so
  // the hit count is known before the run.
  std::vector<ht::PhysAddr> addrs(lookups);
  uint64_t expected_hits = 0;
  uint64_t state = 0x2545f4914f6cdd1dull;
  for (uint64_t i = 0; i < lookups; ++i) {
    const uint64_t line = NextRandom(state) % (2 * lines);
    expected_hits += line < lines ? 1 : 0;
    addrs[i] = line * ht::kLineBytes;
  }
  const Clock::time_point start = Clock::now();
  for (const ht::PhysAddr addr : addrs) {
    cache.Lookup(addr);
  }
  const double seconds = SecondsBetween(start, Clock::now());

  MicrobenchResult result;
  result.name = "cpu.cache_lookup_ns";
  result.unit = "ns";
  result.value = Ratio(seconds * 1e9, static_cast<double>(lookups));
  result.expected = expected_hits;
  result.done = cache.stats().Get("cache.read_hits");
  return result;
}

std::vector<MicrobenchResult> RunTenantMicrobenches(uint32_t tenants, int repeats) {
  // The cloud workload's population, configured as RunScenario's cloud
  // path configures it for the undefended family.
  constexpr uint64_t kPagesPerTenant = 4;
  constexpr double kChurnRate = 0.02;
  std::vector<double> init_ms;
  std::vector<double> churn_ms;
  uint64_t initialized = tenants;
  uint64_t churned = std::numeric_limits<uint64_t>::max();
  const uint64_t expected_churn = static_cast<uint64_t>(kChurnRate * (tenants - 2));
  for (int r = 0; r < repeats; ++r) {
    ht::System system(ht::SystemConfig{});
    const uint64_t row_group = ht::PagesPerRowGroup(system.mc().mapper());
    ht::TenantConfig config;
    config.slots = tenants;
    config.pages_per_slot = kPagesPerTenant;
    config.mix = "cloud";
    config.churn_rate = kChurnRate;
    config.placement_chunk = row_group;
    config.attacker_pages = std::max<uint64_t>(kPagesPerTenant, 16 * row_group);
    config.victim_pages = std::max<uint64_t>(kPagesPerTenant, 2 * row_group);
    config.stream_factory = [](const std::string& kind, ht::DomainId domain, ht::VirtAddr base,
                               uint64_t bytes, uint64_t seed) {
      return ht::MakeWorkload(kind, domain, base, bytes, ~0ull >> 1, seed);
    };
    ht::TenantManager manager(&system.kernel(), &system.llc(), config);

    const Clock::time_point start = Clock::now();
    const bool init_ok = manager.Init();
    const Clock::time_point initialized_at = Clock::now();
    const uint64_t recycled = manager.Churn(0);
    const Clock::time_point churned_at = Clock::now();
    init_ms.push_back(SecondsBetween(start, initialized_at) * 1e3);
    churn_ms.push_back(SecondsBetween(initialized_at, churned_at) * 1e3);

    uint64_t active = 0;
    for (uint32_t slot = 0; slot < tenants; ++slot) {
      active += manager.DomainOf(slot) != ht::kInvalidDomain ? 1 : 0;
    }
    initialized = std::min(initialized, init_ok && manager.alloc_failures() == 0 ? active : 0);
    churned = std::min({churned, recycled, manager.churn_events()});
  }
  MicrobenchResult init;
  init.name = "os.tenant_init_ms";
  init.unit = "ms";
  init.value = Median(init_ms);
  init.expected = tenants;
  init.done = initialized;
  MicrobenchResult churn;
  churn.name = "os.churn_ms";
  churn.unit = "ms";
  churn.value = Median(churn_ms);
  churn.expected = expected_churn;
  churn.done = churned;
  return {init, churn};
}

std::vector<Metric> LayerMetrics(const Pass& traced, double untraced_wall_s,
                                 const std::vector<MicrobenchResult>& micro) {
  LayerSpans spans;
  ht::StatSet stats;
  uint64_t ops = 0;
  uint64_t churn_events = 0;
  uint64_t defense_interrupts = 0;
  for (const CellRun& run : traced.cells) {
    spans.dram_issue_ns += run.layers.dram_issue_ns;
    spans.dram_issued += run.layers.dram_issued;
    spans.defense_hook_ns += run.layers.defense_hook_ns;
    spans.hook_nested_dram_ns += run.layers.hook_nested_dram_ns;
    stats.MergeFrom(run.stats);
    ops += run.result.perf.ops;
    churn_events += run.result.churn_events;
    defense_interrupts += run.result.defense_interrupts;
  }
  const auto count = [&stats](const char* name) {
    return static_cast<double>(stats.Get(name));
  };
  const double run_s = PhaseSeconds(traced.profile, "runner.run");
  const double report_s = PhaseSeconds(traced.profile, "runner.report");
  const double commands = static_cast<double>(DramCommands(stats));
  const double issue_s = static_cast<double>(spans.dram_issue_ns) * 1e-9;
  const double hook_self_s =
      static_cast<double>(spans.defense_hook_ns - spans.hook_nested_dram_ns) * 1e-9;
  const double row_accesses =
      count("mc.row_hits") + count("mc.row_misses") + count("mc.row_conflicts");

  std::vector<Metric> metrics = {
      {"sim.run_s", run_s, "s"},
      {"sim.report_s", report_s, "s"},
      {"sim.host_ns_per_dram_cmd", Ratio(run_s * 1e9, commands), "ns"},
      {"dram.issue_s", issue_s, "s"},
      {"dram.issue_ns_per_cmd", Ratio(issue_s * 1e9, static_cast<double>(spans.dram_issued)),
       "ns"},
      {"dram.commands", commands, "count"},
      {"dram.acts", count("dram.acts"), "count"},
      {"dram.refs", count("dram.refs"), "count"},
      {"dram.trr_repairs", count("dram.trr_repairs"), "count"},
      {"dram.flip_events", count("dram.flip_events"), "count"},
      {"mc_cpu.self_s", run_s - issue_s - hook_self_s, "s"},
      {"mc.requests", count("mc.requests"), "count"},
      {"mc.wake_batches", count("mc.wake_batches"), "count"},
      {"mc.cmds_per_scan", Ratio(commands, count("mc.wake_batches")), "ratio"},
      {"mc.enqueue_rejected", count("mc.enqueue_rejected"), "count"},
      {"mc.throttle_stalls", count("mc.throttle_stalls"), "count"},
      {"mc.row_hit_rate", Ratio(count("mc.row_hits"), row_accesses), "ratio"},
      {"core.ops", static_cast<double>(ops), "count"},
      {"core.window_stalls", count("core.window_stalls"), "count"},
      {"cache.read_misses", count("cache.read_misses"), "count"},
      {"cache.writebacks", count("cache.writebacks"), "count"},
      {"tenant.churn_events", static_cast<double>(churn_events), "count"},
      {"kernel.page_moves", count("kernel.page_moves"), "count"},
      {"defense.hook_s", hook_self_s, "s"},
      {"defense.interrupts", static_cast<double>(defense_interrupts), "count"},
      {"mc.mitigation_refreshes", count("mc.mitigation_refreshes"), "count"},
      {"act.table_probes", count("act.table_probes"), "count"},
  };
  for (const MicrobenchResult& bench : micro) {
    metrics.push_back({bench.name, bench.value, bench.unit});
  }
  metrics.push_back({"trace_overhead_frac", Ratio(traced.wall_s, untraced_wall_s) - 1.0, "ratio"});
  return metrics;
}

bool WriteChromeTrace(const std::string& path, const Workload& workload, const Pass& traced,
                      const ht::JsonValue& stamp, std::string* error) {
  using ht::JsonValue;
  JsonValue events = JsonValue::Array();
  JsonValue process = JsonValue::Object();
  process.Set("name", JsonValue::Str("process_name"));
  process.Set("ph", JsonValue::Str("M"));
  process.Set("pid", JsonValue::Uint(1));
  JsonValue process_args = JsonValue::Object();
  process_args.Set("name", JsonValue::Str("hammerbench " + workload.name + " seed " +
                                          std::to_string(workload.seed)));
  process.Set("args", std::move(process_args));
  events.Push(std::move(process));
  for (size_t i = 0; i < traced.cells.size(); ++i) {
    const CellRun& run = traced.cells[i];
    for (const Span& span : run.spans) {
      JsonValue event = JsonValue::Object();
      event.Set("name", JsonValue::Str(span.name));
      event.Set("cat", JsonValue::Str("hammerbench"));
      event.Set("ph", JsonValue::Str("X"));
      event.Set("pid", JsonValue::Uint(1));
      event.Set("tid", JsonValue::Uint(run.worker));
      event.Set("ts", JsonValue::Double(span.start_us));
      event.Set("dur", JsonValue::Double(span.dur_us));
      JsonValue args = JsonValue::Object();
      args.Set("cell", JsonValue::Uint(i));
      if (std::string(span.name) == "cell") {
        args.Set("key", JsonValue::Str(workload.cells[i].key));
        args.Set("setup_s", JsonValue::Double(run.setup_s));
        args.Set("sim_s", JsonValue::Double(run.sim_s));
        args.Set("dram_issue_s",
                 JsonValue::Double(static_cast<double>(run.layers.dram_issue_ns) * 1e-9));
        args.Set("dram_issued", JsonValue::Uint(run.layers.dram_issued));
        args.Set("defense_hook_s",
                 JsonValue::Double(static_cast<double>(run.layers.defense_hook_ns) * 1e-9));
        args.Set("defense_calls", JsonValue::Uint(run.layers.defense_calls));
      }
      event.Set("args", std::move(args));
      events.Push(std::move(event));
    }
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", JsonValue::Str("ms"));
  doc.Set("otherData", stamp);
  std::ofstream out(path);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  doc.Dump(out, -1);
  out << "\n";
  out.close();
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace hb
