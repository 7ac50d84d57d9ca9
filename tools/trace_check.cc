// trace_check — schema validator for the telemetry output files.
//
//   trace_check --trace FILE [NAME...]    Chrome trace_event JSON; each
//                                         extra NAME must appear among the
//                                         event names at least once.
//   trace_check --metrics FILE            hammertime.metrics.v1 document.
//   trace_check --sweep FILE              hammertime.sweep_report.v1 document.
//   trace_check --pattern FILE            hammertime.pattern_report.v1 document.
//   trace_check --cloud FILE              hammertime.cloud_report.v1 document.
//   trace_check --compare FILE FILE       two metrics documents must be
//                                         identical after zeroing the
//                                         non-deterministic wall_seconds
//                                         (serial-vs-parallel check).
//   trace_check --trend BASELINE CURRENT [--tolerance X]
//                                         cross-revision regression gate:
//                                         counters must match exactly,
//                                         wall-clock/rate leaves are
//                                         compared as normalized shares
//                                         (host-speed invariant) within
//                                         the tolerance ratio. Key,
//                                         array-size and container/scalar
//                                         changes and speedup drops fail.
//   trace_check --inject-slowdown FACTOR IN OUT [SCOPE]
//                                         test helper: scales timing
//                                         leaves under the dotted path
//                                         SCOPE (whole doc when omitted)
//                                         to fabricate a regression.
//
// Every FILE argument is JSON text, read by ReadTelemetryDocument.
//
// Exits 0 on success, 1 on validation failure, 2 on usage/IO errors.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "common/telemetry/json.h"
#include "common/telemetry/report.h"
#include "common/telemetry/trend.h"

namespace {

int Usage() {
  std::fputs(
      "usage: trace_check --trace FILE [NAME...]\n"
      "       trace_check --metrics FILE\n"
      "       trace_check --sweep FILE\n"
      "       trace_check --pattern FILE\n"
      "       trace_check --cloud FILE\n"
      "       trace_check --compare FILE FILE\n"
      "       trace_check --trend BASELINE CURRENT [--tolerance X]\n"
      "       trace_check --inject-slowdown FACTOR IN OUT [SCOPE]\n",
      stderr);
  return 2;
}

// Loads a telemetry file; a read or parse error goes to stderr.
std::optional<ht::JsonValue> ParseFile(const std::string& path) {
  std::string error;
  std::optional<ht::JsonValue> doc = ht::ReadTelemetryDocument(path, &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "trace_check: %s\n", error.c_str());
  }
  return doc;
}

// Wall-clock differs between otherwise identical runs; zero it everywhere
// before comparing documents.
void ZeroWallSeconds(ht::JsonValue& value) {
  if (value.type() == ht::JsonValue::Type::kObject) {
    for (auto& [key, member] : value.members()) {
      if (key == "wall_seconds") {
        member = ht::JsonValue::Double(0.0);
      } else {
        ZeroWallSeconds(member);
      }
    }
  } else if (value.type() == ht::JsonValue::Type::kArray) {
    for (size_t i = 0; i < value.size(); ++i) {
      ZeroWallSeconds(value.at(i));
    }
  }
}

struct SchemaMode {
  const char* flag;
  std::function<bool(const ht::JsonValue&, std::string*)> validate;
  std::function<std::string(const ht::JsonValue&)> summary;  // After "valid ".
};

// Parses a whole finite number > 0; otherwise names `what` on stderr.
bool ParsePositive(const char* what, const char* text, double* out) {
  if (ht::ParseNumberToken(text, out) && *out > 0.0) {
    return true;
  }
  std::fprintf(stderr, "trace_check: bad %s %s: need a finite number > 0\n", what, text);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string mode = argv[1];
  std::string error;

  // The schema modes: FILE must validate, and the summary names its size.
  // Only --trace takes arguments after FILE.
  const std::vector<std::string> names(argv + 3, argv + argc);
  const auto cells = [](const ht::JsonValue& doc) {
    return std::to_string(doc.Find("cells")->size()) + "/" +
           std::to_string(doc.Find("grid_cells")->as_uint()) + " cells";
  };
  const auto size_of = [](const ht::JsonValue& doc, const char* member) {
    return std::to_string(doc.Find(member)->size());
  };
  const SchemaMode schema_modes[] = {
      {"--trace",
       [&](const ht::JsonValue& doc, std::string* e) {
         return ht::ValidateChromeTrace(doc, names, e);
       },
       [&](const ht::JsonValue& doc) {
         return "chrome trace (" + size_of(doc, "traceEvents") + " events)";
       }},
      {"--metrics", ht::ValidateMetricsDocument,
       [&](const ht::JsonValue& doc) {
         return "metrics document (" + size_of(doc, "reports") + " reports)";
       }},
      {"--sweep", ht::ValidateSweepReport,
       [&](const ht::JsonValue& doc) { return "sweep report (" + cells(doc) + ")"; }},
      {"--pattern", ht::ValidatePatternReport,
       [&](const ht::JsonValue& doc) {
         return "pattern report (" + cells(doc) + ", " + size_of(doc, "ranking") + " vendors)";
       }},
      {"--cloud", ht::ValidateCloudReport,
       [&](const ht::JsonValue& doc) {
         return "cloud report (" + cells(doc) + ", " + size_of(doc, "ranking") + " families)";
       }},
  };
  for (const SchemaMode& schema : schema_modes) {
    if (mode != schema.flag) {
      continue;
    }
    if (!names.empty() && mode != "--trace") {
      return Usage();
    }
    auto doc = ParseFile(argv[2]);
    if (!doc.has_value()) {
      return 2;
    }
    if (!schema.validate(*doc, &error)) {
      std::fprintf(stderr, "trace_check: %s: %s\n", argv[2], error.c_str());
      return 1;
    }
    std::printf("trace_check: %s: valid %s\n", argv[2], schema.summary(*doc).c_str());
    return 0;
  }

  if (mode == "--compare") {
    if (argc != 4) {
      return Usage();
    }
    auto a = ParseFile(argv[2]);
    auto b = ParseFile(argv[3]);
    if (!a.has_value() || !b.has_value()) {
      return 2;
    }
    for (const auto* doc : {&*a, &*b}) {
      if (!ht::ValidateMetricsDocument(*doc, &error)) {
        std::fprintf(stderr, "trace_check: %s\n", error.c_str());
        return 1;
      }
    }
    ZeroWallSeconds(*a);
    ZeroWallSeconds(*b);
    if (!(*a == *b)) {
      std::fprintf(stderr, "trace_check: %s and %s differ beyond wall_seconds\n", argv[2],
                   argv[3]);
      return 1;
    }
    std::printf("trace_check: %s == %s (modulo wall_seconds)\n", argv[2], argv[3]);
    return 0;
  }

  if (mode == "--trend") {
    if (argc != 4 && argc != 6) {
      return Usage();
    }
    ht::TrendOptions options;
    if (argc == 6) {
      if (std::string(argv[4]) != "--tolerance") {
        return Usage();
      }
      if (!ParsePositive("--tolerance", argv[5], &options.tolerance)) {
        return 2;
      }
    }
    auto baseline = ParseFile(argv[2]);
    auto current = ParseFile(argv[3]);
    if (!baseline.has_value() || !current.has_value()) {
      return 2;
    }
    std::vector<ht::TrendIssue> issues;
    if (!ht::TrendCompare(*baseline, *current, options, &issues)) {
      for (const ht::TrendIssue& issue : issues) {
        std::fprintf(stderr, "trace_check: trend: %s: %s\n", issue.path.c_str(),
                     issue.what.c_str());
      }
      std::fprintf(stderr, "trace_check: %s regressed vs %s (%zu issues, tolerance %.2f)\n",
                   argv[3], argv[2], issues.size(), options.tolerance);
      return 1;
    }
    std::printf("trace_check: %s holds the trend of %s (tolerance %.2f)\n", argv[3], argv[2],
                options.tolerance);
    return 0;
  }

  if (mode == "--inject-slowdown") {
    if (argc != 5 && argc != 6) {
      return Usage();
    }
    double factor = 0.0;
    if (!ParsePositive("--inject-slowdown factor", argv[2], &factor)) {
      return 2;
    }
    auto doc = ParseFile(argv[3]);
    if (!doc.has_value()) {
      return 2;
    }
    const std::string scope = argc == 6 ? argv[5] : "";
    *doc = ht::InjectSlowdown(*doc, factor, scope);
    if (!ht::WriteTelemetryDocument(argv[4], *doc, &error)) {
      std::fprintf(stderr, "trace_check: %s\n", error.c_str());
      return 2;
    }
    std::printf("trace_check: injected %.2fx slowdown (%s) %s -> %s\n", factor,
                scope.empty() ? "whole document" : scope.c_str(), argv[3], argv[4]);
    return 0;
  }

  return Usage();
}
