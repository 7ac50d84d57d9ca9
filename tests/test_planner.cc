#include "attack/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "sim/scenario.h"
#include "sim/system.h"

namespace ht {
namespace {

TEST(Planner, ManySidedRowsShareOneBank) {
  SystemConfig config;
  System system(config);
  auto tenants = SetupTenants(system, 2, 512);
  auto plan = PlanManySided(system.kernel(), tenants[0], 8);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->aggressor_rows.size(), 8u);
  EXPECT_EQ(plan->aggressor_vas.size(), 8u);
  EXPECT_EQ(plan->aggressor_addrs.size(), 8u);
  // All aggressor addresses land in the plan's bank.
  for (PhysAddr addr : plan->aggressor_addrs) {
    const DdrCoord coord = system.mc().mapper().Map(addr);
    EXPECT_EQ(coord.bank, plan->bank);
    EXPECT_EQ(coord.rank, plan->rank);
    EXPECT_EQ(coord.channel, plan->channel);
  }
}

TEST(Planner, ManySidedPrefersSpacingTwo) {
  SystemConfig config;
  System system(config);
  auto tenants = SetupTenants(system, 1, 1024);  // Plenty of rows.
  auto plan = PlanManySided(system.kernel(), tenants[0], 4, 2);
  ASSERT_TRUE(plan.has_value());
  for (size_t i = 1; i < plan->aggressor_rows.size(); ++i) {
    EXPECT_GE(plan->aggressor_rows[i] - plan->aggressor_rows[i - 1], 2u);
  }
}

TEST(Planner, ManySidedFailsWhenTooFewRows) {
  SystemConfig config;
  System system(config);
  auto tenants = SetupTenants(system, 1, 16, /*chunk_pages=*/16, /*fill=*/false);
  // 16 pages = 1 row-group = 1 row per bank: can't muster 4 rows.
  auto plan = PlanManySided(system.kernel(), tenants[0], 4);
  EXPECT_FALSE(plan.has_value());
}

TEST(Planner, DoubleSidedCrossSandwichesVictim) {
  SystemConfig config;
  System system(config);
  auto tenants = SetupTenants(system, 2, 512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->aggressor_rows.size(), 2u);
  EXPECT_EQ(plan->aggressor_rows[1], plan->aggressor_rows[0] + 2);
  // The middle row belongs to the victim.
  const auto owners = system.kernel().RowOwners(plan->channel, plan->rank, plan->bank,
                                                plan->aggressor_rows[0] + 1);
  EXPECT_NE(std::find(owners.begin(), owners.end(), tenants[1]), owners.end());
}

TEST(Planner, DoubleSidedCrossFailsUnderSubarrayIsolation) {
  SystemConfig config;
  config.mc.scheme = InterleaveScheme::kSubarrayIsolated;
  config.alloc = AllocPolicy::kSubarrayAware;
  System system(config);
  auto tenants = SetupTenants(system, 2, 512);
  EXPECT_FALSE(PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]).has_value());
}

TEST(Planner, DoubleSidedCrossFailsUnderGuardRows) {
  SystemConfig config;
  config.alloc = AllocPolicy::kGuardRows;
  config.guard_domains = 2;
  config.guard_blast = 2;
  System system(config);
  auto tenants = SetupTenants(system, 2, 256);
  EXPECT_FALSE(PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]).has_value());
}

// Naive reference for the planner's row grouping: the first line VA per
// (channel, rank, bank, row), mapping every line of `va_pages` in the
// order given through Translate.
using RowVas = std::map<std::tuple<uint32_t, uint32_t, uint32_t>, std::map<uint32_t, VirtAddr>>;
RowVas FirstVaPerRow(HostKernel& kernel, DomainId domain, const std::vector<VirtAddr>& va_pages) {
  RowVas rows;
  for (VirtAddr va_page : va_pages) {
    const PhysAddr pa_page = *kernel.Translate(domain, va_page);
    for (uint64_t l = 0; l < kLinesPerPage; ++l) {
      const DdrCoord coord = kernel.mc().mapper().Map(pa_page + l * kLineBytes);
      rows[{coord.channel, coord.rank, coord.bank}].try_emplace(coord.row,
                                                                 va_page + l * kLineBytes);
    }
  }
  return rows;
}

// Every mapped page of the domain, walking up from its base until the
// first unmapped page.
std::vector<VirtAddr> VaPages(HostKernel& kernel, DomainId domain) {
  std::vector<VirtAddr> pages;
  for (VirtAddr va = AddressSpace::BaseFor(domain); kernel.Translate(domain, va).has_value();
       va += kPageBytes) {
    pages.push_back(va);
  }
  return pages;
}

TEST(Planner, PlansFollowVaOrderReference) {
  SystemConfig config;
  System system(config);
  HostKernel& kernel = system.kernel();
  const auto tenants = SetupTenants(system, 2, 512);
  const DomainId attacker = tenants[0];
  const DomainId victim = tenants[1];
  // Move pages from high VA to low: the fresh frames come out ascending,
  // so within the rows they share, VA order and frame order disagree.
  const VirtAddr base = AddressSpace::BaseFor(attacker);
  for (uint64_t page : {300, 250, 200, 150, 100, 50, 10, 5}) {
    ASSERT_TRUE(kernel.MovePage(attacker, base + page * kPageBytes));
  }
  const std::vector<VirtAddr> va_order = VaPages(kernel, attacker);
  ASSERT_EQ(va_order.size(), 512u);
  std::vector<VirtAddr> frame_order = va_order;
  std::sort(frame_order.begin(), frame_order.end(), [&](VirtAddr a, VirtAddr b) {
    return *kernel.Translate(attacker, a) < *kernel.Translate(attacker, b);
  });
  const RowVas rows = FirstVaPerRow(kernel, attacker, va_order);
  // The moves matter: walking in frame order picks other VAs.
  ASSERT_NE(rows, FirstVaPerRow(kernel, attacker, frame_order));

  auto expect_plan = [&](const std::optional<HammerPlan>& plan, const auto& key,
                         const std::vector<std::pair<uint32_t, VirtAddr>>& chosen) {
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(std::tuple(plan->channel, plan->rank, plan->bank), key);
    std::vector<uint32_t> expected_rows;
    std::vector<VirtAddr> expected_vas;
    std::vector<PhysAddr> expected_addrs;
    for (const auto& [row, va] : chosen) {
      expected_rows.push_back(row);
      expected_vas.push_back(va);
      expected_addrs.push_back(*kernel.Translate(attacker, va));
    }
    EXPECT_EQ(plan->aggressor_rows, expected_rows);
    EXPECT_EQ(plan->aggressor_vas, expected_vas);
    EXPECT_EQ(plan->aggressor_addrs, expected_addrs);
  };

  // Many-sided: the first bank with the most rows, then rows at least
  // `spacing` apart in ascending order.
  const std::vector<std::pair<uint32_t, uint32_t>> cases = {{8, 2}, {16, 2}, {4, 1}, {6, 5}};
  for (const auto& [sides, spacing] : cases) {
    SCOPED_TRACE(testing::Message() << sides << " sides, spacing " << spacing);
    auto best = rows.begin();
    for (auto it = rows.begin(); it != rows.end(); ++it) {
      if (it->second.size() > best->second.size()) {
        best = it;
      }
    }
    ASSERT_GE(best->second.size(), sides);
    std::vector<std::pair<uint32_t, VirtAddr>> chosen;
    for (const auto& [row, va] : best->second) {
      if (chosen.size() < sides && (chosen.empty() || row >= chosen.back().first + spacing)) {
        chosen.emplace_back(row, va);
      }
    }
    ASSERT_EQ(chosen.size(), sides);
    expect_plan(PlanManySided(kernel, attacker, sides, spacing), best->first, chosen);
  }

  // Double-sided cross: the first attacker row pair (r, r + 2), in bank
  // and row order, whose middle row holds a victim line.
  const RowVas victim_rows = FirstVaPerRow(kernel, victim, VaPages(kernel, victim));
  bool found = false;
  for (const auto& [key, bank_rows] : rows) {
    auto victim_bank = victim_rows.find(key);
    for (const auto& [row, va] : bank_rows) {
      auto above = bank_rows.find(row + 2);
      if (found || above == bank_rows.end() || victim_bank == victim_rows.end() ||
          !victim_bank->second.contains(row + 1)) {
        continue;
      }
      found = true;
      expect_plan(PlanDoubleSidedCross(kernel, attacker, victim), key,
                  {{row, va}, {row + 2, above->second}});
    }
  }
  EXPECT_TRUE(found);
}

TEST(Planner, VictimRowsExcludeAggressors) {
  HammerPlan plan;
  plan.aggressor_rows = {10, 12};
  const auto victims = VictimRowsOf(plan, 2, 1024);
  // Rows 8,9,11,13,14 (10 and 12 are aggressors, excluded).
  EXPECT_EQ(victims, (std::vector<uint32_t>{8, 9, 11, 13, 14}));
}

TEST(Planner, VictimRowsClampAtBankEdges) {
  HammerPlan plan;
  plan.aggressor_rows = {0, 1023};
  const auto victims = VictimRowsOf(plan, 2, 1024);
  for (uint32_t v : victims) {
    EXPECT_LT(v, 1024u);
  }
  EXPECT_EQ(victims.front(), 1u);
  EXPECT_EQ(victims.back(), 1022u);
}

}  // namespace
}  // namespace ht
