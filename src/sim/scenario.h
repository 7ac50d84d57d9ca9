// Experiment scaffolding shared by benches, examples, and integration
// tests: tenant setup with adjacent (checkerboarded) allocations, defense
// presets/factories, hardware-mitigation installation, and
// security/performance summaries.
#ifndef HAMMERTIME_SRC_SIM_SCENARIO_H_
#define HAMMERTIME_SRC_SIM_SCENARIO_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "defense/defense.h"
#include "sim/system.h"

namespace ht {

// --- Software defenses -------------------------------------------------------

enum class DefenseKind : uint8_t {
  kNone,
  kSwRefresh,       // §4.3 refresh instruction driven by §4.2 interrupts.
  kSwRefreshRefn,   // Same, but using the REF_NEIGHBORS DRAM assist.
  kActRemap,        // §4.2 wear-leveling page migration.
  kCacheLock,       // §4.2 cache-line locking with migration fallback.
  kAnvil,           // PMU-sampling software-only baseline [4].
};

// Canonical-name registries. Every kind enum has a ToString/FromString
// round-trip (FromString also accepts documented aliases) and a Known*()
// comma-joined name list, in declaration order, for CLI usage/error text. The sweep grid and result cache key off the
// canonical names, so renaming one invalidates cached sweep cells.
const char* ToString(DefenseKind kind);
std::optional<DefenseKind> DefenseKindFromString(std::string_view name);
std::string KnownDefenseKinds();

// Adjusts a SystemConfig so the chosen defense's hardware prerequisites
// (ACT counter, interrupt precision, REF_NEIGHBORS) are enabled.
void ApplyDefensePreset(SystemConfig& config, DefenseKind kind, uint64_t act_threshold = 512);

// Builds the defense object (installed via System::InstallDefense).
std::unique_ptr<Defense> MakeDefense(DefenseKind kind, const DramConfig& dram);

// --- Hardware (in-MC) mitigation baselines -----------------------------------

enum class HwMitigationKind : uint8_t {
  kNone,
  kPara,
  kGraphene,
  kTwice,
  kBlockHammer,
};

const char* ToString(HwMitigationKind kind);
std::optional<HwMitigationKind> HwMitigationKindFromString(std::string_view name);
std::string KnownHwMitigationKinds();

void InstallHwMitigation(System& system, HwMitigationKind kind);

// --- Attack patterns ---------------------------------------------------------

enum class AttackKind : uint8_t {
  kNone,         // Benign only.
  kDoubleSided,  // Classic sandwich around a victim row.
  kManySided,    // TRRespass-style n aggressors.
  kDma,          // Double-sided pattern driven by a DMA engine.
  kAdaptive,     // Counter-synchronized evasion attacker (§4.2).
  kHalfDouble,   // Distance-2 aggressors (blast-radius attack).
  kPattern,      // Frequency-domain pattern from ScenarioSpec::pattern_seed
                 // (Blacksmith-style, src/attack/pattern.h).
};

const char* ToString(AttackKind kind);
std::optional<AttackKind> AttackKindFromString(std::string_view name);
std::string KnownAttackKinds();

// --- Tenants -------------------------------------------------------------

// Pages spanned by one row index across the whole system under `mapper`'s
// scheme (the natural granularity at which row ownership is exclusive).
uint64_t PagesPerRowGroup(const AddressMapper& mapper);

// Creates `count` tenant domains and allocates `pages_each` pages per
// tenant in `chunk_pages`-page turns, so tenants' rows abut in physical
// memory (the realistic worst case for isolation). `chunk_pages == 0`
// uses one row-group per turn, which makes row ownership exclusive while
// keeping adjacent rows cross-tenant. Fills every region with the golden
// pattern when `fill` is set.
std::vector<DomainId> SetupTenants(System& system, uint32_t count, uint64_t pages_each,
                                   uint64_t chunk_pages = 0, bool fill = true);

// --- Outcome summaries ------------------------------------------------------

struct SecurityOutcome {
  uint64_t flip_events = 0;
  uint64_t cross_domain_flips = 0;
  uint64_t intra_domain_flips = 0;
  uint64_t corrupted_lines = 0;
  uint64_t dos_lockups = 0;
};

// Drains caches, verifies all golden regions, and attributes flips.
SecurityOutcome Assess(System& system);

struct PerfSummary {
  uint64_t ops = 0;
  Cycle cycles = 0;
  double ops_per_kcycle = 0.0;
  double row_hit_rate = 0.0;
  double avg_read_latency = 0.0;
  double p99_read_latency = 0.0;  // Tail latency (cloud SLO metric).
  uint64_t extra_acts = 0;  // ACTs from mitigation/defense refreshes.
};

PerfSummary Summarize(System& system, Cycle cycles);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_SCENARIO_H_
