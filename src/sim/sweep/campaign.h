// The one driver behind the campaign CLIs (hammersweep, hammerpattern,
// hammercloud). A CampaignKind says what differs per campaign: its grid
// flags, how they expand into cells, and its report shape. CampaignMain
// owns everything else: the --cache-dir/--resume/--binary-cache/--shard/
// --max-cells/--progress-every/--out/--merge/--list flags, the runner
// flags, running the cells (RunCells), merging shard reports
// (MergeCellReports, JSON and .htb inputs alike), and the stderr summary.
#ifndef HAMMERTIME_SRC_SIM_SWEEP_CAMPAIGN_H_
#define HAMMERTIME_SRC_SIM_SWEEP_CAMPAIGN_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/argparse.h"
#include "sim/sweep/sweep.h"

namespace ht {

struct CampaignKind {
  const char* program;      // Binary name; prefixes every stderr line.
  const char* description;  // The --help headline.
  // Declares the grid flags, with their defaults, ahead of the shared ones.
  void (*declare_grid)(ArgParser& parser);
  // Expands the parsed grid flags into key-sorted cells. Returns false
  // with `error` set on a bad value (printed as "<program>: error: ...").
  bool (*expand)(const ArgParser& parser, std::vector<SweepCellSpec>* cells, std::string* error);
  ReportBuilder make_report;
  bool (*validate)(const JsonValue& report, std::string* error);
  // Extra stderr lines after a run, before the wall-clock line; optional.
  void (*summarize)(const JsonValue& report) = nullptr;
};

// Runs one campaign command line; returns the process exit status (0, or
// 2 on a bad command line, unreadable input or failed write).
int CampaignMain(const CampaignKind& kind, int argc, char** argv);

// Decodes the comma-separated names of `flag` through a registry lookup
// (a FromString or ByName function returning std::optional). Returns
// false with the first unknown name in `*bad`.
template <typename T, typename Lookup>
bool ParseNames(const ArgParser& parser, std::string_view flag, Lookup lookup,
                std::vector<T>* out, std::string* bad) {
  out->clear();
  for (const std::string& name : parser.GetStrings(flag)) {
    const std::optional<T> value = lookup(name);
    if (!value.has_value()) {
      *bad = name;
      return false;
    }
    out->push_back(*value);
  }
  return true;
}

// The seed axis shared by the fuzzing campaigns: the explicit list in
// `list_flag` when given, else --seed-count consecutive seeds from
// --base-seed.
std::vector<uint64_t> SeedList(const ArgParser& parser, std::string_view list_flag);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_SWEEP_CAMPAIGN_H_
