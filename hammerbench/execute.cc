// Runs a workload's cells through ht::RunScenario on a fixed-width
// fan-out, in one of three modes (fast, reference + oracle, traced), and
// builds the campaign report where the workload has one.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/telemetry/profile.h"
#include "common/telemetry/report.h"
#include "sim/sweep/cloud.h"
#include "sim/sweep/patterns.h"
#include "sim/sweep/speckey.h"

namespace hb {
namespace {

// Individual child spans kept per cell and kind; the rest are only summed.
constexpr int kSpanSamples = 16;

const Clock::time_point kEpoch = Clock::now();

double MicrosSinceEpoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}

int64_t Nanos(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

void AddSpan(CellRun* run, const char* name, Clock::time_point from, Clock::time_point to) {
  const double start_us = MicrosSinceEpoch(from);
  run->spans.push_back({name, start_us, MicrosSinceEpoch(to) - start_us});
}

// Set while a defense hook runs on this thread, so DRAM commands issued
// from inside it count as the hook's children, not its self time.
thread_local bool tls_in_defense_hook = false;

// dram layer: times each accepted command from OnCommand (verdict taken,
// no state changed yet) to OnCommandApplied (all state applied).
class IssueTimer final : public ht::DeviceCheckObserver {
 public:
  explicit IssueTimer(CellRun* run) : run_(run) {}

  void OnCommand(const ht::DdrCommand&, ht::Cycle, ht::TimingVerdict verdict,
                 uint32_t) override {
    if (verdict == ht::TimingVerdict::kOk) {
      start_ = Clock::now();
    }
  }
  void OnRepair(uint32_t, uint32_t, uint32_t, ht::Cycle) override {}
  void OnFlip(uint32_t, uint32_t, uint32_t, uint32_t, ht::Cycle) override {}
  void OnCommandApplied(const ht::DdrCommand&, ht::Cycle) override {
    const Clock::time_point end = Clock::now();
    const int64_t ns = Nanos(start_, end);
    run_->layers.dram_issue_ns += ns;
    ++run_->layers.dram_issued;
    if (tls_in_defense_hook) {
      run_->layers.hook_nested_dram_ns += ns;
    }
    if (sampled_ < kSpanSamples) {
      ++sampled_;
      AddSpan(run_, "dram.issue", start_, end);
    }
  }

 private:
  CellRun* run_;
  Clock::time_point start_{};
  int sampled_ = 0;
};

// defense layer: one probe per cell, shared by the forwarders below.
struct HookProbe {
  CellRun* run = nullptr;
  int sampled = 0;
};

class TimedHook {
 public:
  explicit TimedHook(HookProbe* probe) : probe_(probe), start_(Clock::now()) {
    tls_in_defense_hook = true;
  }
  ~TimedHook() {
    tls_in_defense_hook = false;
    const Clock::time_point end = Clock::now();
    probe_->run->layers.defense_hook_ns += Nanos(start_, end);
    ++probe_->run->layers.defense_calls;
    if (probe_->sampled < kSpanSamples) {
      ++probe_->sampled;
      AddSpan(probe_->run, "defense.hook", start_, end);
    }
  }
  TimedHook(const TimedHook&) = delete;
  TimedHook& operator=(const TimedHook&) = delete;

 private:
  HookProbe* probe_;
  Clock::time_point start_;
};

// Re-binds the ACT-interrupt route and every core's miss observer to
// forwarders that call system.defense() exactly as System does, inside a
// span. Without a defense System arms no ACT route, so neither do we; the
// undefended NoDefense hooks are empty, so they keep System's binding and
// their calls add no span overhead to defense.hook_s.
void InstrumentDefenseHooks(ht::System& system, HookProbe* probe) {
  if (system.defense() == nullptr ||
      dynamic_cast<const ht::NoDefense*>(system.defense()) != nullptr) {
    return;
  }
  system.mc().SetActInterruptHandler([&system, probe](const ht::ActInterrupt& irq) {
    if (ht::Defense* defense = system.defense()) {
      TimedHook timed(probe);
      defense->OnActInterrupt(irq, system.now());
    }
  });
  for (uint32_t c = 0; c < system.core_count(); ++c) {
    system.core(c).set_miss_observer([&system, probe](const ht::MissEvent& event) {
      if (ht::Defense* defense = system.defense()) {
        TimedHook timed(probe);
        defense->OnMiss(event, system.now());
      }
    });
  }
}

void RunCell(const Cell& cell, const PassOptions& options, CellRun* run) {
  ht::ScenarioSpec spec = cell.spec;
  if (options.mode == Mode::kReference) {
    spec.system.skip_idle = false;
    spec.system.mc.event_driven = false;
    spec.system.core.event_driven = false;
  }
  std::unique_ptr<ht::SystemOracle> oracle;
  std::vector<std::unique_ptr<IssueTimer>> timers;
  HookProbe probe{run};
  Clock::time_point started{};

  ht::ScenarioHooks hooks;
  hooks.on_start = [&](ht::System& system) {
    started = Clock::now();
    if (options.mode == Mode::kReference) {
      oracle = std::make_unique<ht::SystemOracle>(options.oracle);
      oracle->Attach(system);
    } else if (options.mode == Mode::kTraced) {
      for (uint32_t c = 0; c < system.mc().channels(); ++c) {
        timers.push_back(std::make_unique<IssueTimer>(run));
        system.mc().device(c).set_check_observer(timers.back().get());
      }
      InstrumentDefenseHooks(system, &probe);
    }
  };
  hooks.on_finish = [&](ht::System& system) {
    const Clock::time_point finished = Clock::now();
    run->sim_s = SecondsBetween(started, finished);
    if (options.mode == Mode::kTraced) {
      AddSpan(run, "sim", started, finished);
    }
    if (oracle != nullptr) {
      oracle->FinalCheck();
      run->oracle_ok = oracle->ok();
      run->oracle_commands = oracle->commands_observed();
      if (!run->oracle_ok) {
        run->oracle_report = oracle->Report();
      }
      oracle->Detach(system);
    }
    for (uint32_t c = 0; c < timers.size(); ++c) {
      system.mc().device(c).set_check_observer(nullptr);
    }
    run->stats = system.CollectStats();
  };

  const Clock::time_point entry = Clock::now();
  run->result = ht::RunScenario(spec, nullptr, &hooks);
  run->setup_s = SecondsBetween(entry, started);
  if (options.mode == Mode::kTraced) {
    AddSpan(run, "setup", entry, started);
    AddSpan(run, "cell", entry, Clock::now());
  }
}

// Runs body(i, worker) for i in [0, jobs) on `width` threads (the caller
// is worker 0). The first exception is rethrown after every thread joined.
void FanOut(size_t jobs, unsigned width, const std::function<void(size_t, unsigned)>& body) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  const auto work = [&](unsigned worker) {
    for (size_t i = next.fetch_add(1); i < jobs; i = next.fetch_add(1)) {
      try {
        body(i, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) {
          error = std::current_exception();
        }
        next.store(jobs);
      }
    }
  };
  std::vector<std::thread> helpers;
  const unsigned threads = static_cast<unsigned>(std::min<size_t>(std::max(width, 1u), jobs));
  for (unsigned w = 1; w < threads; ++w) {
    helpers.emplace_back(work, w);
  }
  work(0);
  for (std::thread& helper : helpers) {
    helper.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// The campaign report cell shape RunCells writes: key, the canonical
// spec with members sorted, and the result.
ht::JsonValue ReportCell(const Cell& cell, const ht::ScenarioResult& result) {
  ht::JsonValue spec = ht::SpecCanonicalJson(cell.spec);
  std::sort(spec.members().begin(), spec.members().end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ht::JsonValue out = ht::JsonValue::Object();
  out.Set("key", ht::JsonValue::Str(cell.key));
  out.Set("spec", std::move(spec));
  out.Set("result", ht::ScenarioResultToJson(result));
  return out;
}

void BuildCampaignReport(const Workload& workload, Pass* pass) {
  if (workload.campaign == Campaign::kTaxonomy) {
    return;
  }
  std::vector<ht::JsonValue> cells;
  cells.reserve(workload.cells.size());
  for (size_t i = 0; i < workload.cells.size(); ++i) {
    cells.push_back(ReportCell(workload.cells[i], pass->cells[i].result));
  }
  const uint64_t grid_cells = cells.size();
  if (workload.campaign == Campaign::kCloud) {
    pass->report_ok =
        ht::ValidateCloudReport(ht::MakeCloudReport(grid_cells, std::move(cells)),
                                &pass->report_error);
  } else {
    pass->report_ok =
        ht::ValidatePatternReport(ht::MakePatternReport(grid_cells, std::move(cells)),
                                  &pass->report_error);
  }
}

}  // namespace

Pass RunPass(const Workload& workload, const PassOptions& options) {
  Pass pass;
  pass.cells.resize(workload.cells.size());
  ht::Profiler& profiler = ht::Profiler::Global();
  if (options.mode == Mode::kTraced) {
    profiler.Enable();  // Resets: the phases cover this pass alone.
  }
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  FanOut(workload.cells.size(), options.width, [&](size_t i, unsigned worker) {
    RunCell(workload.cells[i], options, &pass.cells[i]);
    pass.cells[i].worker = worker;
  });
  BuildCampaignReport(workload, &pass);
  pass.wall_s = SecondsBetween(start, Clock::now());
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  if (options.mode == Mode::kTraced) {
    pass.profile = profiler.ToJson();
    profiler.Enable(false);
  }
  for (const CellRun& run : pass.cells) {
    pass.setup_s += run.setup_s;
  }
  return pass;
}

}  // namespace hb
