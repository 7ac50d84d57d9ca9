#include "sim/sweep/campaign.h"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/telemetry/binary.h"

namespace ht {
namespace {

int Fail(const CampaignKind& kind, const std::string& what) {
  std::fprintf(stderr, "%s: error: %s (try --help)\n", kind.program, what.c_str());
  return 2;
}

bool WriteReport(const JsonValue& report, const std::string& out_path) {
  if (out_path.empty()) {
    std::ostringstream text;
    report.Dump(text);
    text << "\n";
    std::fputs(text.str().c_str(), stdout);
    return true;
  }
  const std::filesystem::path parent = std::filesystem::path(out_path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  // Extension-dispatched: `--out report.htb` writes hammertime.bin.v1.
  return WriteTelemetryDocument(out_path, report);
}

int Merge(const CampaignKind& kind, const ArgParser& parser) {
  if (parser.positionals().empty()) {
    return Fail(kind, "--merge needs report files as positional arguments");
  }
  std::vector<JsonValue> reports;
  for (const std::string& path : parser.positionals()) {
    // Shard inputs may be JSON or .htb; the reader sniffs content.
    std::string error;
    std::optional<JsonValue> doc = ReadTelemetryDocument(path, &error);
    if (!doc.has_value()) {
      return Fail(kind, error);
    }
    reports.push_back(std::move(*doc));
  }
  std::string error;
  const JsonValue merged = MergeCellReports(reports, kind.validate, kind.make_report, &error);
  if (merged.type() == JsonValue::Type::kNull) {
    return Fail(kind, error);
  }
  if (!WriteReport(merged, parser.Get("out"))) {
    return Fail(kind, "cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr, "%s: merged %zu reports (%zu cells)\n", kind.program, reports.size(),
               merged.Find("cells")->size());
  return 0;
}

}  // namespace

std::vector<uint64_t> SeedList(const ArgParser& parser, std::string_view list_flag) {
  if (!parser.Get(list_flag).empty()) {
    return parser.GetUints(list_flag);
  }
  std::vector<uint64_t> seeds;
  const uint64_t count = parser.GetUint("seed-count");
  const uint64_t base = parser.GetUint("base-seed");
  for (uint64_t i = 0; i < count; ++i) {
    seeds.push_back(base + i);
  }
  return seeds;
}

int CampaignMain(const CampaignKind& kind, int argc, char** argv) {
  ArgParser parser(kind.program, kind.description);
  kind.declare_grid(parser);
  parser.Option("cache-dir", "DIR", "persist/reuse per-cell results here")
      .Flag("resume", "reuse valid cached cells instead of re-running them")
      .Flag("binary-cache",
            "store cache cells as hammertime.bin.v1 (.htb); either format is "
            "readable on resume")
      .Option("shard", "K/N", "run only this shard of the cell list", "1/1")
      .Option("max-cells", "N", "stop after N executed cells (0 = all)", "0")
      .Option("progress-every", "SECONDS",
              "print heartbeat progress lines to stderr while cells execute", "0")
      .Option("out", "FILE",
              "write the report here (default: stdout; binary when FILE ends in .htb)")
      .Flag("merge", "merge shard report files (positionals) instead of running")
      .Flag("list", "print the expanded cell list without running anything");
  AddRunnerFlags(parser);
  parser.AllowPositionals("report files for --merge");
  if (!parser.Parse(argc, argv)) {
    return Fail(kind, parser.error());
  }
  if (parser.help_requested()) {
    std::fputs(parser.Usage().c_str(), stdout);
    return 0;
  }
  if (parser.GetBool("merge")) {
    return Merge(kind, parser);
  }
  if (!parser.positionals().empty()) {
    return Fail(kind, "positional arguments are only accepted with --merge");
  }

  std::vector<SweepCellSpec> cells;
  std::string error;
  if (!kind.expand(parser, &cells, &error)) {
    return Fail(kind, error);
  }

  SweepOptions options;
  options.threads = ApplyRunnerFlags(parser);
  options.cache_dir = parser.Get("cache-dir");
  options.resume = parser.GetBool("resume");
  options.binary_cache = parser.GetBool("binary-cache");
  options.max_cells = parser.GetUint("max-cells");
  const std::string& progress = parser.Get("progress-every");
  if (!ParseNumberToken(progress, &options.progress_every) || options.progress_every < 0) {
    return Fail(kind, "bad --progress-every " + progress + " (want a number of seconds >= 0)");
  }
  if (!ParseShard(parser.Get("shard"), &options.shard_index, &options.shard_count)) {
    return Fail(kind, "bad --shard " + parser.Get("shard") + " (want K/N with 1 <= K <= N)");
  }

  if (parser.GetBool("list")) {
    for (const SweepCellSpec& cell : cells) {
      std::ostringstream compact;
      SpecCanonicalJson(cell.spec).Dump(compact, /*indent=*/-1);
      std::printf("%s %s\n", cell.key.c_str(), compact.str().c_str());
    }
    return 0;
  }

  const SweepOutcome outcome = RunCells(cells, options, kind.make_report, kind.program);
  if (!outcome.ok) {
    return Fail(kind, outcome.error);
  }
  if (!WriteReport(outcome.report, parser.Get("out"))) {
    return Fail(kind, "cannot write " + parser.Get("out"));
  }
  std::fprintf(stderr,
               "%s: grid %llu cells, shard %u/%u -> %llu cells "
               "(%llu cached, %llu executed, %llu deferred)\n",
               kind.program, static_cast<unsigned long long>(outcome.total_cells),
               options.shard_index, options.shard_count,
               static_cast<unsigned long long>(outcome.shard_cells),
               static_cast<unsigned long long>(outcome.cached_cells),
               static_cast<unsigned long long>(outcome.executed_cells),
               static_cast<unsigned long long>(outcome.skipped_cells));
  if (options.resume && !options.cache_dir.empty()) {
    std::fprintf(stderr, "%s: cache %llu hits / %llu misses under %s\n", kind.program,
                 static_cast<unsigned long long>(outcome.cached_cells),
                 static_cast<unsigned long long>(outcome.cache_misses),
                 options.cache_dir.c_str());
  }
  if (kind.summarize != nullptr) {
    kind.summarize(outcome.report);
  }
  std::fprintf(stderr,
               "%s: shard wall %.2fs (cache %.2fs, execute %.2fs, report %.2fs)\n",
               kind.program, outcome.wall_seconds, outcome.cache_seconds,
               outcome.execute_seconds, outcome.report_seconds);
  return 0;
}

}  // namespace ht
