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
//   trace_check --convert IN OUT          lossless format conversion:
//                                         hammertime.bin.v1 traces become
//                                         Chrome JSON, binary documents
//                                         become their exact JSON text,
//                                         and JSON documents become .htb
//                                         when OUT ends in .htb.
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
// Every FILE argument may be JSON text or a hammertime.bin.v1 (.htb)
// container; the reader sniffs content, not extensions.
//
// Exits 0 on success, 1 on validation failure, 2 on usage/IO errors.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/argparse.h"
#include "common/telemetry/binary.h"
#include "common/telemetry/json.h"
#include "common/telemetry/report.h"
#include "common/telemetry/trace.h"
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
      "       trace_check --convert IN OUT\n"
      "       trace_check --trend BASELINE CURRENT [--tolerance X]\n"
      "       trace_check --inject-slowdown FACTOR IN OUT [SCOPE]\n",
      stderr);
  return 2;
}

// Loads a telemetry file as a JsonValue document. Binary containers are
// decoded: a kJson payload yields the original document, a kTrace payload
// is rendered through the canonical Chrome-trace writer so `--trace`
// validates .htb traces exactly like their JSON twins.
std::optional<ht::JsonValue> ParseFile(const std::string& path) {
  std::string error;
  std::optional<std::string> read = ht::ReadFileBytes(path, &error);
  if (!read.has_value()) {
    std::fprintf(stderr, "trace_check: %s\n", error.c_str());
    return std::nullopt;
  }
  const std::string& bytes = *read;
  std::optional<ht::JsonValue> doc;
  if (ht::SniffHtbPayload(bytes) == ht::HtbPayload::kTrace) {
    auto buffers = ht::DecodeTraceBinary(bytes, &error);
    if (buffers.has_value()) {
      std::ostringstream chrome;
      ht::WriteChromeTrace(*buffers, chrome);
      doc = ht::JsonValue::Parse(chrome.str(), &error);
    }
  } else if (ht::SniffHtbPayload(bytes) == ht::HtbPayload::kJson) {
    doc = ht::DecodeJsonBinary(bytes, &error);
  } else {
    doc = ht::JsonValue::Parse(bytes, &error);
  }
  if (!doc.has_value()) {
    std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(), error.c_str());
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

  if (mode == "--trace") {
    auto doc = ParseFile(argv[2]);
    if (!doc.has_value()) {
      return 2;
    }
    std::vector<std::string> required;
    for (int i = 3; i < argc; ++i) {
      required.push_back(argv[i]);
    }
    if (!ht::ValidateChromeTrace(*doc, required, &error)) {
      std::fprintf(stderr, "trace_check: %s: %s\n", argv[2], error.c_str());
      return 1;
    }
    std::printf("trace_check: %s: valid chrome trace (%zu events)\n", argv[2],
                doc->Find("traceEvents")->size());
    return 0;
  }

  if (mode == "--metrics") {
    auto doc = ParseFile(argv[2]);
    if (!doc.has_value()) {
      return 2;
    }
    if (!ht::ValidateMetricsDocument(*doc, &error)) {
      std::fprintf(stderr, "trace_check: %s: %s\n", argv[2], error.c_str());
      return 1;
    }
    std::printf("trace_check: %s: valid metrics document (%zu reports)\n", argv[2],
                doc->Find("reports")->size());
    return 0;
  }

  if (mode == "--sweep") {
    auto doc = ParseFile(argv[2]);
    if (!doc.has_value()) {
      return 2;
    }
    if (!ht::ValidateSweepReport(*doc, &error)) {
      std::fprintf(stderr, "trace_check: %s: %s\n", argv[2], error.c_str());
      return 1;
    }
    std::printf("trace_check: %s: valid sweep report (%zu/%llu cells)\n", argv[2],
                doc->Find("cells")->size(),
                static_cast<unsigned long long>(doc->Find("grid_cells")->as_uint()));
    return 0;
  }

  if (mode == "--pattern") {
    auto doc = ParseFile(argv[2]);
    if (!doc.has_value()) {
      return 2;
    }
    if (!ht::ValidatePatternReport(*doc, &error)) {
      std::fprintf(stderr, "trace_check: %s: %s\n", argv[2], error.c_str());
      return 1;
    }
    std::printf("trace_check: %s: valid pattern report (%zu/%llu cells, %zu vendors)\n",
                argv[2], doc->Find("cells")->size(),
                static_cast<unsigned long long>(doc->Find("grid_cells")->as_uint()),
                doc->Find("ranking")->size());
    return 0;
  }

  if (mode == "--cloud") {
    auto doc = ParseFile(argv[2]);
    if (!doc.has_value()) {
      return 2;
    }
    if (!ht::ValidateCloudReport(*doc, &error)) {
      std::fprintf(stderr, "trace_check: %s: %s\n", argv[2], error.c_str());
      return 1;
    }
    std::printf("trace_check: %s: valid cloud report (%zu/%llu cells, %zu families)\n",
                argv[2], doc->Find("cells")->size(),
                static_cast<unsigned long long>(doc->Find("grid_cells")->as_uint()),
                doc->Find("ranking")->size());
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

  if (mode == "--convert") {
    if (argc != 4) {
      return Usage();
    }
    const std::string in_path = argv[2];
    const std::string out_path = argv[3];
    std::optional<std::string> read = ht::ReadFileBytes(in_path, &error);
    if (!read.has_value()) {
      std::fprintf(stderr, "trace_check: %s\n", error.c_str());
      return 2;
    }
    const std::string& bytes = *read;
    if (ht::SniffHtbPayload(bytes) == ht::HtbPayload::kTrace) {
      // Binary trace -> Chrome JSON (or re-encoded .htb). The decode
      // reproduces the exact TraceBufferSnapshots the producer held, so
      // the JSON twin is byte-identical to writing it directly.
      auto buffers = ht::DecodeTraceBinary(bytes, &error);
      if (!buffers.has_value()) {
        std::fprintf(stderr, "trace_check: %s: %s\n", in_path.c_str(), error.c_str());
        return 1;
      }
      std::ofstream out(out_path, std::ios::trunc | std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "trace_check: cannot open %s\n", out_path.c_str());
        return 2;
      }
      if (ht::IsBinaryTelemetryPath(out_path)) {
        const std::string encoded = ht::EncodeTraceBinary(*buffers);
        out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
      } else {
        ht::WriteChromeTrace(*buffers, out);
      }
      if (!out.flush()) {
        std::fprintf(stderr, "trace_check: write failed for %s\n", out_path.c_str());
        return 2;
      }
      std::printf("trace_check: converted trace %s -> %s (%zu buffers)\n", in_path.c_str(),
                  out_path.c_str(), buffers->size());
      return 0;
    }
    std::optional<ht::JsonValue> doc;
    if (ht::SniffHtbPayload(bytes) == ht::HtbPayload::kJson) {
      doc = ht::DecodeJsonBinary(bytes, &error);
    } else {
      doc = ht::JsonValue::Parse(bytes, &error);
    }
    if (!doc.has_value()) {
      std::fprintf(stderr, "trace_check: %s: %s\n", in_path.c_str(), error.c_str());
      return 1;
    }
    if (!ht::WriteTelemetryDocument(out_path, *doc, &error)) {
      std::fprintf(stderr, "trace_check: %s\n", error.c_str());
      return 2;
    }
    std::printf("trace_check: converted document %s -> %s\n", in_path.c_str(), out_path.c_str());
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
