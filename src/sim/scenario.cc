#include "sim/scenario.h"

#include "defense/anvil_defense.h"
#include "defense/frequency_defense.h"
#include "defense/refresh_defense.h"

namespace ht {
namespace {

// One registry row: the canonical name (what ToString emits and the
// sweep cache keys on) plus an optional accepted alias for FromString.
template <typename Kind>
struct KindEntry {
  Kind kind;
  const char* name;
  const char* alias = nullptr;
};

template <typename Kind, size_t N>
const char* NameOf(const KindEntry<Kind> (&table)[N], Kind kind) {
  for (const auto& entry : table) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "?";
}

template <typename Kind, size_t N>
std::optional<Kind> KindFromString(const KindEntry<Kind> (&table)[N], std::string_view name) {
  for (const auto& entry : table) {
    if (name == entry.name || (entry.alias != nullptr && name == entry.alias)) {
      return entry.kind;
    }
  }
  return std::nullopt;
}

template <typename Kind, size_t N>
std::string JoinNames(const KindEntry<Kind> (&table)[N]) {
  std::string out;
  for (const auto& entry : table) {
    if (!out.empty()) {
      out += ", ";
    }
    out += entry.name;
  }
  return out;
}

constexpr KindEntry<DefenseKind> kDefenseKinds[] = {
    {DefenseKind::kNone, "none"},
    {DefenseKind::kSwRefresh, "sw-refresh"},
    {DefenseKind::kSwRefreshRefn, "sw-refresh+refn", "sw-refresh-refn"},
    {DefenseKind::kActRemap, "act-remap"},
    {DefenseKind::kCacheLock, "cache-lock"},
    {DefenseKind::kAnvil, "anvil"},
};

constexpr KindEntry<HwMitigationKind> kHwMitigationKinds[] = {
    {HwMitigationKind::kNone, "none"},
    {HwMitigationKind::kPara, "para"},
    {HwMitigationKind::kGraphene, "graphene"},
    {HwMitigationKind::kTwice, "twice"},
    {HwMitigationKind::kBlockHammer, "blockhammer"},
};

constexpr KindEntry<AttackKind> kAttackKinds[] = {
    {AttackKind::kNone, "benign", "none"},
    {AttackKind::kDoubleSided, "double-sided"},
    {AttackKind::kManySided, "many-sided"},
    {AttackKind::kDma, "dma"},
    {AttackKind::kAdaptive, "adaptive"},
    {AttackKind::kHalfDouble, "half-double"},
    {AttackKind::kPattern, "pattern"},
};

}  // namespace

const char* ToString(DefenseKind kind) { return NameOf(kDefenseKinds, kind); }

std::optional<DefenseKind> DefenseKindFromString(std::string_view name) {
  return KindFromString(kDefenseKinds, name);
}

std::string KnownDefenseKinds() { return JoinNames(kDefenseKinds); }

const char* ToString(HwMitigationKind kind) { return NameOf(kHwMitigationKinds, kind); }

std::optional<HwMitigationKind> HwMitigationKindFromString(std::string_view name) {
  return KindFromString(kHwMitigationKinds, name);
}

std::string KnownHwMitigationKinds() { return JoinNames(kHwMitigationKinds); }

const char* ToString(AttackKind kind) { return NameOf(kAttackKinds, kind); }

std::optional<AttackKind> AttackKindFromString(std::string_view name) {
  return KindFromString(kAttackKinds, name);
}

std::string KnownAttackKinds() { return JoinNames(kAttackKinds); }

void ApplyDefensePreset(SystemConfig& config, DefenseKind kind, uint64_t act_threshold) {
  switch (kind) {
    case DefenseKind::kNone:
    case DefenseKind::kAnvil:
      // ANVIL is software-only: no MC primitive needed (that's its flaw).
      break;
    case DefenseKind::kSwRefresh:
    case DefenseKind::kActRemap:
    case DefenseKind::kCacheLock:
      config.mc.act_counter.enabled = true;
      config.mc.act_counter.precise = true;
      config.mc.act_counter.threshold = act_threshold;
      config.mc.act_counter.randomize_reset = true;
      break;
    case DefenseKind::kSwRefreshRefn:
      config.mc.act_counter.enabled = true;
      config.mc.act_counter.precise = true;
      config.mc.act_counter.threshold = act_threshold;
      config.mc.act_counter.randomize_reset = true;
      config.mc.use_ref_neighbors = true;
      break;
  }
}

std::unique_ptr<Defense> MakeDefense(DefenseKind kind, const DramConfig& dram) {
  switch (kind) {
    case DefenseKind::kNone:
      return nullptr;
    case DefenseKind::kSwRefresh: {
      SoftRefreshConfig config;
      config.method = VictimRefreshMethod::kRefreshInstruction;
      config.blast_radius = dram.disturbance.blast_radius;
      return std::make_unique<SoftRefreshDefense>(config);
    }
    case DefenseKind::kSwRefreshRefn: {
      SoftRefreshConfig config;
      config.method = VictimRefreshMethod::kRefNeighbors;
      config.blast_radius = dram.disturbance.blast_radius;
      return std::make_unique<SoftRefreshDefense>(config);
    }
    case DefenseKind::kActRemap: {
      ActRemapConfig config;
      config.history_window = dram.retention.refresh_window;
      return std::make_unique<ActRemapDefense>(config);
    }
    case DefenseKind::kCacheLock: {
      CacheLockConfig config;
      config.lock_duration = dram.retention.refresh_window;
      return std::make_unique<CacheLockDefense>(config);
    }
    case DefenseKind::kAnvil: {
      AnvilConfig config;
      config.blast_radius = dram.disturbance.blast_radius;
      return std::make_unique<AnvilDefense>(config);
    }
  }
  return nullptr;
}

void InstallHwMitigation(System& system, HwMitigationKind kind) {
  const DramConfig& dram = system.config().dram;
  switch (kind) {
    case HwMitigationKind::kNone:
      return;
    case HwMitigationKind::kPara:
      system.mc().InstallMitigation(
          std::make_unique<ParaMitigation>(dram.org, ParaConfig{}));
      return;
    case HwMitigationKind::kGraphene:
      system.mc().InstallMitigation(
          std::make_unique<GrapheneMitigation>(dram.org, dram.disturbance, GrapheneConfig{}));
      return;
    case HwMitigationKind::kTwice:
      system.mc().InstallMitigation(std::make_unique<TwiceMitigation>(
          dram.org, dram.timing, dram.disturbance, TwiceConfig{}));
      return;
    case HwMitigationKind::kBlockHammer:
      system.mc().InstallMitigation(std::make_unique<BlockHammerMitigation>(
          dram.org, dram.retention, dram.disturbance, BlockHammerConfig{}));
      return;
  }
}

uint64_t PagesPerRowGroup(const AddressMapper& mapper) {
  const DramOrg& org = mapper.org();
  uint64_t lines_per_row_group;
  if (mapper.scheme() == InterleaveScheme::kBankSequential) {
    // A row's columns are contiguous; the next row follows immediately.
    lines_per_row_group = org.columns;
  } else {
    // Interleaved: one row index spans every channel/rank/bank.
    lines_per_row_group =
        static_cast<uint64_t>(org.channels) * org.ranks * org.banks * org.columns;
  }
  return std::max<uint64_t>(1, lines_per_row_group / kLinesPerPage);
}

std::vector<DomainId> SetupTenants(System& system, uint32_t count, uint64_t pages_each,
                                   uint64_t chunk_pages, bool fill) {
  if (chunk_pages == 0) {
    chunk_pages = PagesPerRowGroup(system.mc().mapper());
  }
  std::vector<DomainId> domains;
  domains.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    domains.push_back(system.AddDomain({.name = "tenant" + std::to_string(i)}));
  }
  // Interleave allocation turns so tenants' frames abut in physical
  // memory — the worst case isolation must handle.
  std::vector<uint64_t> allocated(count, 0);
  std::vector<VirtAddr> bases(count, 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (uint32_t i = 0; i < count; ++i) {
      if (allocated[i] >= pages_each) {
        continue;
      }
      const uint64_t chunk = std::min(chunk_pages, pages_each - allocated[i]);
      auto base = system.kernel().AllocRegion(domains[i], chunk);
      if (base.has_value()) {
        if (allocated[i] == 0) {
          bases[i] = *base;
        }
        allocated[i] += chunk;
        progress = true;
      } else {
        allocated[i] = pages_each;  // Pool exhausted; stop trying.
      }
    }
  }
  if (fill) {
    for (uint32_t i = 0; i < count; ++i) {
      if (allocated[i] > 0) {
        system.kernel().FillRegion(domains[i], bases[i], allocated[i]);
      }
    }
  }
  return domains;
}

SecurityOutcome Assess(System& system) {
  system.DrainCaches();
  SecurityOutcome outcome;
  const VerifyResult verify = system.kernel().VerifyAll();
  outcome.corrupted_lines = verify.corrupted_lines;
  outcome.dos_lockups = verify.dos_lockups;
  const FlipAttribution attribution = system.kernel().AttributeFlips();
  outcome.flip_events = attribution.total_flips;
  outcome.cross_domain_flips = attribution.cross_domain;
  outcome.intra_domain_flips = attribution.intra_domain;
  return outcome;
}

PerfSummary Summarize(System& system, Cycle cycles) {
  PerfSummary summary;
  summary.ops = system.TotalOpsCompleted();
  summary.cycles = cycles;
  summary.ops_per_kcycle =
      cycles == 0 ? 0.0 : static_cast<double>(summary.ops) * 1000.0 / static_cast<double>(cycles);
  summary.row_hit_rate = system.RowHitRate();
  summary.avg_read_latency = system.AvgReadLatency();
  summary.p99_read_latency = system.P99ReadLatency();
  summary.extra_acts = system.mc().stats().Get("mc.refresh_instr_acts") +
                       system.mc().stats().Get("mc.mitigation_refreshes");
  return summary;
}

}  // namespace ht
