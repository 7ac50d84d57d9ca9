// Output checks. Every one holds for any workload seed except the golden
// E1 table, which is compared at stock seed 0 only.
#include <set>
#include <string>

#include "bench.h"

namespace hb {
namespace {

using ht::AttackKind;

std::string Num(uint64_t value) { return std::to_string(value); }

std::string DiffResults(const ht::ScenarioResult& a, const ht::ScenarioResult& b) {
  const ht::JsonValue ja = ht::ScenarioResultToJson(a);
  const ht::JsonValue jb = ht::ScenarioResultToJson(b);
  if (ja == jb) {
    return "";
  }
  for (const auto& [name, value] : ja.members()) {
    const ht::JsonValue* other = jb.Find(name);
    if (other == nullptr || !(*other == value)) {
      return "result." + name + " " + value.ToString(-1) + " vs " +
             (other == nullptr ? std::string("missing") : other->ToString(-1));
    }
  }
  return "result members differ";
}

template <typename Map, typename Same>
std::string DiffMaps(const char* kind, const Map& a, const Map& b,
                     bool (*skip)(const std::string&), Same same) {
  std::set<std::string> names;
  for (const auto& entry : a) {
    names.insert(entry.first);
  }
  for (const auto& entry : b) {
    names.insert(entry.first);
  }
  for (const std::string& name : names) {
    if (skip != nullptr && skip(name)) {
      continue;
    }
    const auto ia = a.find(name);
    const auto ib = b.find(name);
    if (!same(ia == a.end() ? nullptr : &ia->second, ib == b.end() ? nullptr : &ib->second)) {
      return std::string(kind) + " " + name + " differs";
    }
  }
  return "";
}

// A stat absent from one side equals a zero / empty one on the other.
std::string DiffStats(const ht::StatSet& a, const ht::StatSet& b,
                      bool (*skip)(const std::string&)) {
  std::string diff = DiffMaps("counter", a.counters(), b.counters(), skip,
                              [](const ht::Counter* x, const ht::Counter* y) {
                                return (x == nullptr ? 0 : x->value()) ==
                                       (y == nullptr ? 0 : y->value());
                              });
  if (diff.empty()) {
    diff = DiffMaps("gauge", a.gauges(), b.gauges(), skip,
                    [](const ht::Gauge* x, const ht::Gauge* y) {
                      return (x == nullptr ? 0.0 : x->value()) ==
                             (y == nullptr ? 0.0 : y->value());
                    });
  }
  if (diff.empty()) {
    diff = DiffMaps("histogram", a.histograms(), b.histograms(), skip,
                    [](const ht::Histogram* x, const ht::Histogram* y) {
                      const ht::Histogram empty;
                      return (x == nullptr ? empty : *x) == (y == nullptr ? empty : *y);
                    });
  }
  return diff;
}

bool IsolationDeniesPlan(AttackKind attack) {
  return attack == AttackKind::kDoubleSided || attack == AttackKind::kDma ||
         attack == AttackKind::kAdaptive || attack == AttackKind::kHalfDouble;
}

}  // namespace

bool IsSchedulerSelfTelemetry(const std::string& stat) {
  return stat == "mc.wake_batches" || stat.ends_with("cmds_per_wake") ||
         stat == "mc.sync_barriers" || stat.starts_with("mc.shard_");
}

std::string DiffCell(const CellRun& a, const CellRun& b, bool (*skip)(const std::string&)) {
  std::string diff = DiffResults(a.result, b.result);
  if (diff.empty()) {
    diff = DiffStats(a.stats, b.stats, skip);
  }
  return diff;
}

void CompareRepeat(const Pass& first, const Pass& repeat, size_t repeat_index,
                   std::vector<std::string>* diffs) {
  for (size_t i = 0; i < first.cells.size(); ++i) {
    std::string diff = DiffCell(first.cells[i], repeat.cells[i], nullptr);
    if (diff.empty() && !repeat.report_ok) {
      diff = "campaign report invalid: " + repeat.report_error;
    }
    if (!diff.empty() && (*diffs)[i].empty()) {
      (*diffs)[i] = "timed repeat " + Num(repeat_index) + ": " + diff;
    }
  }
}

const std::vector<std::vector<GoldenCell>>& GoldenE1() {
  // Rows in TaxonomyRows() order; cells in TaxonomyAttacks() order.
  static const std::vector<std::vector<GoldenCell>> golden = {
      {{12, true}, {31, true}, {3, true}, {8, true}, {25, true}},  // none
      {{0, true}, {31, true}, {0, true}, {0, true}, {0, true}},    // trr-only
      {{0, false}, {0, true}, {0, false}, {0, false}, {0, false}},  // subarray-isolation
      {{0, false}, {0, true}, {0, false}, {0, false}, {0, false}},  // guard-rows
      {{0, true}, {1, true}, {3, true}, {0, true}, {0, true}},     // act-remap
      {{0, true}, {0, true}, {3, true}, {0, true}, {0, true}},     // cache-lock
      {{0, true}, {0, true}, {0, true}, {0, true}, {0, true}},     // blockhammer
      {{0, true}, {0, true}, {0, true}, {0, true}, {0, true}},     // sw-refresh
      {{0, true}, {0, true}, {0, true}, {0, true}, {0, true}},     // sw-refresh-refn
      {{0, true}, {0, true}, {0, true}, {0, true}, {0, true}},     // para
      {{0, true}, {0, true}, {0, true}, {0, true}, {0, true}},     // graphene
      {{0, true}, {0, true}, {3, true}, {0, true}, {0, true}},     // anvil
  };
  return golden;
}

CheckOutcome CheckOutputs(const CheckInputs& inputs) {
  const Workload& workload = *inputs.workload;
  const size_t n = workload.cells.size();
  std::vector<std::string> why(n);
  const auto fail = [&why](size_t i, const std::string& reason) {
    if (why[i].empty()) {
      why[i] = reason;
    }
  };
  const Pass& base = *inputs.fast;
  if (inputs.repeat_diffs != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (!(*inputs.repeat_diffs)[i].empty()) {
        fail(i, (*inputs.repeat_diffs)[i]);
      }
    }
  }

  // Check 4: campaign reports validate, in every pass that built one.
  for (const Pass* pass : {inputs.fast, inputs.reference, inputs.traced}) {
    if (pass != nullptr && !pass->report_ok) {
      for (size_t i = 0; i < n; ++i) {
        fail(i, "campaign report invalid: " + pass->report_error);
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const Cell& cell = workload.cells[i];
    const CellRun& run = base.cells[i];
    // The full budget ran (a cycle cap such as HT_BENCH_SMOKE would not).
    if (run.result.perf.cycles != cell.spec.run_cycles) {
      fail(i, "ran " + Num(run.result.perf.cycles) + " of " + Num(cell.spec.run_cycles) +
                  " cycles");
    }

    // Checks 1 and 2: the per-cycle reference path with the oracle.
    if (inputs.reference != nullptr) {
      const CellRun& ref = inputs.reference->cells[i];
      const std::string diff = DiffCell(run, ref, IsSchedulerSelfTelemetry);
      if (!diff.empty()) {
        fail(i, "reference path: " + diff);
      }
      if (!ref.oracle_ok) {
        fail(i, "oracle: " + ref.oracle_report);
      } else if (ref.oracle_commands == 0) {
        fail(i, "oracle observed no commands");
      }
    }

    // Check 3: tracing changes nothing, and its observer saw every command.
    if (inputs.traced != nullptr) {
      const CellRun& traced = inputs.traced->cells[i];
      const std::string diff = DiffCell(run, traced, nullptr);
      if (!diff.empty()) {
        fail(i, "traced run: " + diff);
      }
      if (traced.layers.dram_issued != DramCommands(run.stats)) {
        fail(i, "issue observer saw " + Num(traced.layers.dram_issued) + " commands, device " +
                    Num(DramCommands(run.stats)));
      }
    }

    // Check 5: invariants that hold for every seed.
    if (workload.campaign == Campaign::kTaxonomy) {
      const TaxonomyRow& row = TaxonomyRows()[cell.row];
      const AttackKind attack = TaxonomyAttacks()[cell.attack];
      if (row.subarray_isolated || row.guard_rows) {
        if (run.result.security.cross_domain_flips != 0) {
          fail(i, "isolation leaked " + Num(run.result.security.cross_domain_flips) +
                      " cross-domain flips");
        }
        if (IsolationDeniesPlan(attack) && run.result.attack_planned) {
          fail(i, "isolation granted the attacker adjacency");
        }
      }
      // Golden values: the E1 fixture, at stock seed 0 only.
      if (workload.seed == 0) {
        const auto& golden = inputs.golden != nullptr ? *inputs.golden : GoldenE1();
        const GoldenCell& expected = golden[cell.row][cell.attack];
        if (run.result.security.cross_domain_flips != expected.cross_domain_flips ||
            run.result.attack_planned != expected.attack_planned) {
          fail(i, "golden E1: " + Num(run.result.security.cross_domain_flips) + " flips (planned " +
                      Num(run.result.attack_planned) + "), expected " +
                      Num(expected.cross_domain_flips) + " (planned " +
                      Num(expected.attack_planned) + ")");
        }
      }
    }
    if (workload.campaign == Campaign::kCloud && cell.family == "isolation" &&
        run.result.escaped_flips != 0) {
      fail(i, "isolation family escaped " + Num(run.result.escaped_flips) + " flips");
    }
  }

  CheckOutcome outcome;
  for (size_t i = 0; i < n; ++i) {
    if (!why[i].empty()) {
      ++outcome.cells_failed;
      outcome.failures.push_back(workload.cells[i].key + ": " + why[i]);
    }
  }
  return outcome;
}

}  // namespace hb
