#include "sim/sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/telemetry/profile.h"
#include "common/thread_pool.h"

namespace ht {
namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// Periodic progress lines on stderr while the cell fan-out runs. One line
// is printed immediately (so a sweep shorter than the period still shows
// a heartbeat), then one per period until stopped. stderr keeps the
// report stream on stdout clean.
class Heartbeat {
 public:
  Heartbeat(const char* label, double period_seconds, uint64_t pending_cells,
            uint64_t cached_cells, const std::atomic<uint64_t>* done)
      : label_(label), period_(period_seconds), pending_(pending_cells),
        cached_(cached_cells), done_(done) {
    if (period_ <= 0) {
      return;
    }
    Print();
    thread_ = std::thread([this] { Loop(); });
  }

  ~Heartbeat() {
    if (!thread_.joinable()) {
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Print();  // Final line so the last state is always visible.
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(period_), [this] { return stop_; })) {
      lock.unlock();
      Print();
      lock.lock();
    }
  }

  void Print() const {
    const uint64_t done = done_->load(std::memory_order_relaxed);
    const double elapsed = SecondsSince(start_);
    const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
    std::fprintf(stderr,
                 "%s: progress %llu/%llu cells (%llu cached), %.1f cells/s, "
                 "elapsed %.1fs\n",
                 label_, static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(pending_),
                 static_cast<unsigned long long>(cached_), rate, elapsed);
  }

  const char* label_;
  double period_;
  uint64_t pending_;
  uint64_t cached_;
  const std::atomic<uint64_t>* done_;
  SteadyClock::time_point start_ = SteadyClock::now();
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Normalize a canonical spec object's member order so cached and freshly
// computed cells serialize identically no matter how the spec was built.
JsonValue SortedMembers(JsonValue object) {
  std::sort(object.members().begin(), object.members().end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return object;
}

JsonValue MakeReportCell(const std::string& key, JsonValue spec, JsonValue result) {
  JsonValue cell = JsonValue::Object();
  cell.Set("key", JsonValue::Str(key));
  cell.Set("spec", SortedMembers(std::move(spec)));
  cell.Set("result", std::move(result));
  return cell;
}

// The cache cell carries everything the report cell does plus the full
// StatSet snapshot, which downstream analysis can read without ever
// re-running the cell (the report stays lean and stats-free).
JsonValue MakeCacheCell(const JsonValue& report_cell, JsonValue stats) {
  JsonValue cell = JsonValue::Object();
  cell.Set("schema", JsonValue::Str(kSweepCellSchema));
  for (const auto& [name, value] : report_cell.members()) {
    cell.Set(name, value);
  }
  cell.Set("stats", std::move(stats));
  return cell;
}

}  // namespace

std::vector<SweepCellSpec> KeyedCells(const std::vector<ScenarioSpec>& specs) {
  std::map<std::string, const ScenarioSpec*> by_key;
  for (const ScenarioSpec& spec : specs) {
    by_key.emplace(SweepKey(spec), &spec);
  }
  std::vector<SweepCellSpec> out;
  out.reserve(by_key.size());
  for (const auto& [key, spec] : by_key) {  // std::map iterates in key order.
    out.push_back(SweepCellSpec{key, *spec});
  }
  return out;
}

std::vector<SweepCellSpec> ExpandGrid(const SweepGrid& grid) {
  std::vector<ScenarioSpec> specs;
  for (const DefenseKind defense : grid.defenses) {
    for (const HwMitigationKind hw : grid.hw) {
      for (const AttackKind attack : grid.attacks) {
        for (const uint64_t threshold : grid.act_thresholds) {
          for (const uint32_t trr : grid.trr_entries) {
            for (const uint32_t blast : grid.blast_radii) {
              for (const int generation : grid.generations) {
                for (const Cycle cycles : grid.cycle_budgets) {
                  for (const uint64_t seed : grid.seeds) {
                    ScenarioSpec& spec = specs.emplace_back();
                    if (generation >= 0) {
                      spec.system.dram = DramConfig::DensityGeneration(generation);
                    }
                    if (trr > 0) {
                      spec.system.dram.trr.enabled = true;
                      spec.system.dram.trr.table_entries = trr;
                    }
                    if (blast > 0) {
                      spec.system.dram.disturbance.blast_radius = blast;
                    }
                    spec.defense = defense;
                    spec.hw = hw;
                    spec.attack = attack;
                    spec.act_threshold = threshold;
                    spec.run_cycles = cycles;
                    spec.seed = seed;
                    spec.sides = grid.sides;
                    spec.tenants = grid.tenants;
                    spec.pages_per_tenant = grid.pages_per_tenant;
                    spec.benign_corunner = grid.benign_corunner;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return KeyedCells(specs);
}

JsonValue MakeCellReport(const char* schema, uint64_t grid_cells, std::vector<JsonValue> cells) {
  std::sort(cells.begin(), cells.end(), [](const JsonValue& a, const JsonValue& b) {
    return a.Find("key")->as_string() < b.Find("key")->as_string();
  });
  JsonValue report = JsonValue::Object();
  report.Set("schema", JsonValue::Str(schema));
  report.Set("grid_cells", JsonValue::Uint(grid_cells));
  JsonValue array = JsonValue::Array();
  for (JsonValue& cell : cells) {
    array.Push(std::move(cell));
  }
  report.Set("cells", std::move(array));
  return report;
}

JsonValue MakeSweepReport(uint64_t grid_cells, std::vector<JsonValue> cells) {
  return MakeCellReport(kSweepReportSchema, grid_cells, std::move(cells));
}

uint64_t FieldUint(const JsonValue& object, const char* name) {
  const JsonValue* member = object.Find(name);
  return (member != nullptr && member->is_number()) ? member->as_uint() : 0;
}

double FieldDouble(const JsonValue& object, const char* name, double fallback) {
  const JsonValue* member = object.Find(name);
  return (member != nullptr && member->is_number()) ? member->as_double() : fallback;
}

std::string FieldStr(const JsonValue& object, const char* name) {
  const JsonValue* member = object.Find(name);
  return (member != nullptr && member->type() == JsonValue::Type::kString) ? member->as_string()
                                                                           : std::string();
}

SweepOutcome RunCells(const std::vector<SweepCellSpec>& all, const SweepOptions& options,
                      ReportBuilder make_report, const char* progress_label) {
  SweepOutcome outcome;
  if (options.shard_count == 0 || options.shard_index == 0 ||
      options.shard_index > options.shard_count) {
    outcome.error = "bad shard: index must be in 1..count";
    return outcome;
  }

  const SteadyClock::time_point sweep_start = SteadyClock::now();
  outcome.total_cells = all.size();

  // This shard's slice of the key-sorted cell list, then split into
  // cache hits and cells that still need simulation.
  ResultCache cache(options.cache_dir, options.binary_cache);
  std::vector<JsonValue> completed;
  std::vector<SweepCellSpec> pending;
  {
    ProfilePhase cache_phase("sweep.cache_load");
    const SteadyClock::time_point cache_start = SteadyClock::now();
    for (size_t i = 0; i < all.size(); ++i) {
      if (i % options.shard_count != options.shard_index - 1) {
        continue;
      }
      ++outcome.shard_cells;
      if (options.resume && cache.enabled()) {
        if (std::optional<JsonValue> hit = cache.Load(all[i].key)) {
          ++outcome.cached_cells;
          completed.push_back(MakeReportCell(all[i].key, std::move(*hit->Find("spec")),
                                             std::move(*hit->Find("result"))));
          continue;
        }
        ++outcome.cache_misses;
      }
      pending.push_back(all[i]);
    }
    outcome.cache_seconds = SecondsSince(cache_start);
  }

  if (options.max_cells > 0 && pending.size() > options.max_cells) {
    outcome.skipped_cells = pending.size() - options.max_cells;
    pending.resize(options.max_cells);
  }

  // Fan the missing cells out over the pool. Each cell is a
  // self-contained System (bit-identical to a serial loop), and a finish
  // hook snapshots the live System's StatSet for the cache cell.
  std::vector<ScenarioResult> results(pending.size());
  std::vector<JsonValue> stats(pending.size());
  std::atomic<uint64_t> cells_done{0};
  {
    ProfilePhase execute_phase("sweep.execute");
    const SteadyClock::time_point execute_start = SteadyClock::now();
    Heartbeat heartbeat(progress_label, options.progress_every, pending.size(),
                        outcome.cached_cells, &cells_done);
    ParallelFor(pending.size(),
                pending.size() <= 1 ? 1u : ResolveThreadCount(options.threads),
                [&](uint64_t i) {
      ScenarioHooks hooks;
      hooks.on_finish = [&stats, i](System& system) {
        stats[i] = StatSetToJson(system.CollectStats());
      };
      results[i] = RunScenario(pending[i].spec, nullptr, &hooks);
      cells_done.fetch_add(1, std::memory_order_relaxed);
    });
    outcome.execute_seconds = SecondsSince(execute_start);
  }

  ProfilePhase report_phase("sweep.report");
  const SteadyClock::time_point report_start = SteadyClock::now();
  for (size_t i = 0; i < pending.size(); ++i) {
    ++outcome.executed_cells;
    JsonValue cell = MakeReportCell(pending[i].key, SpecCanonicalJson(pending[i].spec),
                                    ScenarioResultToJson(results[i]));
    if (cache.enabled()) {
      std::string store_error;
      if (!cache.Store(pending[i].key, MakeCacheCell(cell, std::move(stats[i])), &store_error)) {
        outcome.error = store_error;
        return outcome;
      }
    }
    completed.push_back(std::move(cell));
  }

  outcome.report = make_report(outcome.total_cells, std::move(completed));
  outcome.report_seconds = SecondsSince(report_start);
  outcome.wall_seconds = SecondsSince(sweep_start);
  if (Profiler::Global().enabled()) [[unlikely]] {
    Profiler::Global().AddCounter("sweep.cache_hits", outcome.cached_cells);
    Profiler::Global().AddCounter("sweep.cache_misses", outcome.cache_misses);
    Profiler::Global().AddCounter("sweep.cells_executed", outcome.executed_cells);
  }
  outcome.ok = true;
  return outcome;
}

JsonValue MergeCellReports(const std::vector<JsonValue>& reports,
                           bool (*validate)(const JsonValue&, std::string*),
                           ReportBuilder make_report, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return JsonValue::Null();
  };
  if (reports.empty()) {
    return fail("nothing to merge");
  }
  uint64_t grid_cells = 0;
  std::map<std::string, JsonValue> merged;
  for (size_t i = 0; i < reports.size(); ++i) {
    std::string validate_error;
    if (!validate(reports[i], &validate_error)) {
      return fail("input " + std::to_string(i) + ": " + validate_error);
    }
    const uint64_t this_grid = reports[i].Find("grid_cells")->as_uint();
    if (i == 0) {
      grid_cells = this_grid;
    } else if (this_grid != grid_cells) {
      return fail("input " + std::to_string(i) + ": grid_cells mismatch (" +
                  std::to_string(this_grid) + " vs " + std::to_string(grid_cells) + ")");
    }
    for (const JsonValue& cell : reports[i].Find("cells")->items()) {
      const std::string& key = cell.Find("key")->as_string();
      const auto [it, inserted] = merged.emplace(key, cell);
      if (!inserted && !(it->second == cell)) {
        return fail("conflicting results for cell " + key);
      }
    }
  }
  if (merged.size() > grid_cells) {
    return fail("merged cell count exceeds grid_cells");
  }
  std::vector<JsonValue> cells;
  cells.reserve(merged.size());
  for (auto& [key, cell] : merged) {
    cells.push_back(std::move(cell));
  }
  return make_report(grid_cells, std::move(cells));
}

}  // namespace ht
