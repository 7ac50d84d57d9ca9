// E2 — Interleaving vs. isolation (§4.1, Fig. 2).
//
// The paper's argument: disabling interleaving for bank-aware isolation
// costs double-digit throughput (it cites >18% [49]); subarray-isolated
// interleaving keeps the parallelism *and* the isolation. Four tenant VMs
// run memory-bound workloads under each configuration; we report
// throughput, row-buffer behaviour, and whether cross-domain adjacency
// exists.
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_util.h"

namespace ht {
namespace {

struct Config {
  std::string label;
  InterleaveScheme scheme;
  AllocPolicy alloc;
};

struct MixOutcome {
  PerfSummary perf;
  bool adjacency = false;
};

MixOutcome RunMix(const Config& config, const std::string& workload_kind,
                  ScenarioTelemetry* telemetry) {
  const Cycle kRun = RunBudget(600000);
  SystemConfig system_config;
  system_config.cores = 4;
  system_config.core.window = 16;  // High-MLP cores (irregular apps).
  system_config.mc.scheme = config.scheme;
  system_config.alloc = config.alloc;
  JobSystem system(system_config, telemetry);
  auto tenants = SetupTenants(system, 4, 1024);
  for (uint32_t i = 0; i < 4; ++i) {
    system.AssignCore(i, tenants[i],
                      MakeWorkload(workload_kind, tenants[i], AddressSpace::BaseFor(tenants[i]),
                                   1024 * kPageBytes, ~0ull >> 1, 31 + i));
  }
  system.RunFor(kRun);
  const MixOutcome outcome = {
      Summarize(system, kRun),
      HasCrossDomainAdjacency(system.kernel(), tenants[0],
                              system.config().dram.disturbance.blast_radius)};
  system.Report(kRun);
  return outcome;
}

void PrintMix(const std::vector<Config>& configs, const MixOutcome* outcomes,
              const std::string& title, size_t baseline_index) {
  Table table(title);
  table.SetHeader({"configuration", "ops/kcycle", "vs interleaved", "row-hit rate",
                   "read lat (cyc)", "cross-domain adjacency?"});
  const double baseline = outcomes[baseline_index].perf.ops_per_kcycle;
  for (size_t i = 0; i < configs.size(); ++i) {
    const PerfSummary& perf = outcomes[i].perf;
    const double delta = perf.ops_per_kcycle / baseline - 1.0;
    table.AddRow({configs[i].label, Table::Fixed(perf.ops_per_kcycle, 1),
                  i == baseline_index
                      ? "baseline"
                      : (delta >= 0 ? "+" : "-") + Table::Percent(std::abs(delta)),
                  Table::Percent(perf.row_hit_rate), Table::Fixed(perf.avg_read_latency, 1),
                  outcomes[i].adjacency ? "yes (attackable)" : "no"});
  }
  table.Print();
}

// Fig. 2 demonstration: where one page of each domain lands. Returns the
// rendered table.
std::string Fig2Table(ScenarioTelemetry* telemetry) {
  Table fig2("E2b. Fig. 2 in practice: first page of each tenant under subarray-isolated "
             "interleaving (bank spread kept, subarray pinned)");
  fig2.SetHeader({"tenant", "subarray group", "banks touched by one page", "rows"});
  SystemConfig demo_config;
  demo_config.cores = 1;
  demo_config.mc.scheme = InterleaveScheme::kSubarrayIsolated;
  demo_config.alloc = AllocPolicy::kSubarrayAware;
  JobSystem demo(demo_config, telemetry);
  auto tenants = SetupTenants(demo, 3, 16, 0, /*fill=*/false);
  for (DomainId tenant : tenants) {
    const VirtAddr base = AddressSpace::BaseFor(tenant);
    std::set<uint32_t> banks;
    std::set<uint32_t> rows_touched;
    std::set<uint32_t> groups;
    for (uint64_t l = 0; l < kLinesPerPage; ++l) {
      const auto pa = demo.kernel().Translate(tenant, base + l * kLineBytes);
      const DdrCoord coord = demo.mc().mapper().Map(*pa);
      banks.insert(coord.bank);
      rows_touched.insert(coord.row);
      groups.insert(demo.config().dram.org.SubarrayOfRow(coord.row));
    }
    std::string group_str;
    for (uint32_t g : groups) {
      group_str += (group_str.empty() ? "" : ",") + std::to_string(g);
    }
    std::string row_str;
    for (uint32_t r : rows_touched) {
      row_str += (row_str.empty() ? "" : ",") + std::to_string(r);
    }
    fig2.AddRow({"tenant" + std::to_string(tenant), group_str,
                 std::to_string(banks.size()) + "/" +
                     std::to_string(demo.config().dram.org.banks),
                 row_str});
  }
  demo.Report(0);
  return fig2.ToString();
}

void Main(unsigned threads) {
  const std::vector<Config> configs = {
      {"cache-line interleave + linear (fast, unsafe)", InterleaveScheme::kCacheLine,
       AllocPolicy::kLinear},
      {"permutation interleave + linear", InterleaveScheme::kPermutation, AllocPolicy::kLinear},
      {"no interleave + bank-aware (isolated)", InterleaveScheme::kBankSequential,
       AllocPolicy::kBankAware},
      {"subarray-isolated interleave + subarray-aware", InterleaveScheme::kSubarrayIsolated,
       AllocPolicy::kSubarrayAware},
  };
  // The paper's cited >18% benefit [49] is about irregular, high-MLP
  // applications: their parallelism starves when a tenant is confined to
  // one bank. Streaming workloads instead benefit from private banks
  // (no row-buffer interference) — both sides are reported.
  const std::vector<std::string> kinds = {"random", "stream"};
  const std::vector<MixOutcome> mixes = RunScenarios(
      "e2", kinds.size() * configs.size(),
      [&](size_t i, ScenarioTelemetry* t) {
        return RunMix(configs[i % configs.size()], kinds[i / configs.size()], t);
      },
      threads);
  const std::string fig2 =
      RunScenarios("e2b", 1, [](size_t, ScenarioTelemetry* t) { return Fig2Table(t); }, threads)[0];

  PrintMix(configs, &mixes[0],
           "E2. Irregular workloads (4 VMs x uniform random): bank-level parallelism matters",
           /*baseline_index=*/0);
  PrintMix(configs, &mixes[configs.size()],
           "E2 (contrast). Streaming workloads (4 VMs x sequential): row-buffer interference "
           "matters",
           /*baseline_index=*/0);
  std::fputs(fig2.c_str(), stdout);
}

}  // namespace
}  // namespace ht

int main(int argc, char** argv) {
  ht::Main(ht::BenchMain(argc, argv));
  return 0;
}
