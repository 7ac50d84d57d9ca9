// hammertime.bin.v1 — compact binary container for telemetry documents.
//
// One container format, two payload kinds, dispatched by the `.htb` file
// extension everywhere a JSON path is accepted today:
//
//   * kJson  — any JsonValue document (metrics.v1, run_report.v1,
//     sweep_report.v1, sweep_cell.v1). Keys and string values are interned
//     into a front-loaded string table, scalars are varint/zigzag coded,
//     and all-uint arrays (sampler stamp/series rows, histogram buckets)
//     collapse to first-value + zigzag deltas. Type tags preserve the
//     JsonValue type exactly — kInt vs kUint vs kDouble survive a round
//     trip bit-for-bit, so decoding and re-dumping reproduces the direct
//     JSON emission byte-identically (the `trace_check --convert`
//     contract, asserted in ctest -L bin_smoke).
//
//   * kTrace — the retained events of every TraceBuffer in a sink,
//     cycle-delta coded per buffer, with capacity/emitted preserved so
//     drop counts survive. Decoding yields the TraceBufferSnapshots the
//     live sink held, so WriteChromeTrace renders them byte-identically.
//
// Layout: "HTB1" magic, one payload-kind byte, then the payload. All
// integers are LEB128 varints (zigzag for signed); doubles are 8-byte
// little-endian IEEE-754 so shortest-round-trip printing is unaffected.
#ifndef HAMMERTIME_SRC_COMMON_TELEMETRY_BINARY_H_
#define HAMMERTIME_SRC_COMMON_TELEMETRY_BINARY_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry/json.h"
#include "common/telemetry/trace.h"

namespace ht {

inline constexpr char kHtbMagic[4] = {'H', 'T', 'B', '1'};
inline constexpr const char* kHtbExtension = ".htb";

enum class HtbPayload : uint8_t {
  kJson = 1,
  kTrace = 2,
};

// True when `path` ends in ".htb" — the dispatch rule used by every
// --trace-out/--metrics-out/--out/--cache-dir writer.
bool IsBinaryTelemetryPath(std::string_view path);

// Payload kind of an encoded container, or nullopt if the magic is wrong
// or the input is too short.
std::optional<HtbPayload> SniffHtbPayload(std::string_view bytes);

// --- JSON documents ---------------------------------------------------------

std::string EncodeJsonBinary(const JsonValue& doc);
std::optional<JsonValue> DecodeJsonBinary(std::string_view bytes, std::string* error = nullptr);

// --- Traces -----------------------------------------------------------------

std::string EncodeTraceBinary(const std::vector<TraceBufferSnapshot>& buffers);
std::optional<std::vector<TraceBufferSnapshot>> DecodeTraceBinary(std::string_view bytes,
                                                                  std::string* error = nullptr);

// --- File helpers -----------------------------------------------------------

// Writes `doc` to `path` in the format the extension selects: binary for
// `.htb`, otherwise pretty JSON (Dump(indent=2) + trailing newline — the
// exact bytes the JSON writers have always produced). Returns false and
// fills `error` on I/O failure.
bool WriteTelemetryDocument(const std::string& path, const JsonValue& doc,
                            std::string* error = nullptr);

// The one telemetry file reader. It dispatches on content (magic sniff),
// not extension, so a `.htb` passed to a JSON consumer still decodes: a
// kJson payload yields the original document, a kTrace payload the
// Chrome trace_event document its JSON twin holds, and anything else is
// parsed as JSON text.
std::optional<JsonValue> ReadTelemetryDocument(const std::string& path,
                                               std::string* error = nullptr);

// The one trace file writer: `buffers` (a sink's SnapshotBuffers(), or a
// decoded .htb trace) go to `path` as binary for `.htb`, Chrome
// trace_event JSON otherwise.
bool WriteTraceOutput(const std::string& path, const std::vector<TraceBufferSnapshot>& buffers,
                      std::string* error = nullptr);

// Whole-file read; nullopt with `error` set on failure.
std::optional<std::string> ReadFileBytes(const std::string& path, std::string* error = nullptr);

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_TELEMETRY_BINARY_H_
