// The hammertime.bin.v1 codec contracts: every JsonValue type survives a
// round trip bit-for-bit (kInt vs kUint vs kDouble preserved, so
// re-dumping reproduces the direct JSON emission byte-identically),
// all-uint arrays take the delta-coded path losslessly, traces decode to
// snapshots that render the exact same Chrome JSON, truncated or
// corrupted containers fail with an error instead of crashing, and the
// extension-dispatched file helpers plus the binary sweep cache read back
// what they wrote.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/telemetry/binary.h"
#include "common/telemetry/json.h"
#include "common/telemetry/trace.h"

namespace ht {
namespace {

std::string DumpText(const JsonValue& doc) {
  std::ostringstream out;
  doc.Dump(out);
  out << "\n";
  return out.str();
}

// Round trip through the binary codec and require the exact same tree.
void ExpectRoundTrip(const JsonValue& doc) {
  const std::string encoded = EncodeJsonBinary(doc);
  ASSERT_EQ(SniffHtbPayload(encoded), HtbPayload::kJson);
  std::string error;
  const std::optional<JsonValue> decoded = DecodeJsonBinary(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_TRUE(*decoded == doc);
  // Byte-identity of the serialized twin, not just tree equality.
  EXPECT_EQ(DumpText(*decoded), DumpText(doc));
}

JsonValue SampleDocument() {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::Str("hammertime.metrics.v1"));
  doc.Set("int_neg", JsonValue::Int(-123456789));
  doc.Set("uint_big", JsonValue::Uint(std::numeric_limits<uint64_t>::max()));
  doc.Set("pi", JsonValue::Double(3.14159265358979));
  doc.Set("tiny", JsonValue::Double(5e-324));
  doc.Set("flag", JsonValue::Bool(true));
  doc.Set("nothing", JsonValue::Null());
  doc.Set("empty_array", JsonValue::Array());
  doc.Set("empty_object", JsonValue::Object());
  JsonValue stamps = JsonValue::Array();  // Delta-eligible: all kUint.
  for (const uint64_t v : {4096ull, 8192ull, 12288ull, 12288ull, 16384ull}) {
    stamps.Push(JsonValue::Uint(v));
  }
  doc.Set("stamps", std::move(stamps));
  JsonValue mixed = JsonValue::Array();  // Not delta-eligible.
  mixed.Push(JsonValue::Uint(7));
  mixed.Push(JsonValue::Int(-7));
  mixed.Push(JsonValue::Str("seven"));
  doc.Set("mixed", std::move(mixed));
  JsonValue nested = JsonValue::Object();
  nested.Set("schema", JsonValue::Str("hammertime.metrics.v1"));  // Interned twice.
  nested.Set("label", JsonValue::Str("double-sided-vs-none"));
  doc.Set("nested", std::move(nested));
  return doc;
}

TEST(BinaryJson, RoundTripsEveryValueType) { ExpectRoundTrip(SampleDocument()); }

TEST(BinaryJson, RoundTripsScalars) {
  ExpectRoundTrip(JsonValue::Null());
  ExpectRoundTrip(JsonValue::Bool(false));
  ExpectRoundTrip(JsonValue::Int(std::numeric_limits<int64_t>::min()));
  ExpectRoundTrip(JsonValue::Uint(0));
  ExpectRoundTrip(JsonValue::Double(-0.0));
  ExpectRoundTrip(JsonValue::Str(""));
}

TEST(BinaryJson, PreservesIntVsUintTags) {
  // Validators type-check kUint fields; a codec that collapsed a positive
  // kInt into kUint (or back) would silently change validation results.
  JsonValue doc = JsonValue::Object();
  doc.Set("as_int", JsonValue::Int(42));
  doc.Set("as_uint", JsonValue::Uint(42));
  const std::optional<JsonValue> decoded = DecodeJsonBinary(EncodeJsonBinary(doc));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->Find("as_int")->type(), JsonValue::Type::kInt);
  EXPECT_EQ(decoded->Find("as_uint")->type(), JsonValue::Type::kUint);
}

TEST(BinaryJson, DeltaArrayBeatsPlainEncodingOnMonotoneStamps) {
  // The motivating case: sampler stamp rows are large, near-uniform
  // uints. The container should be far smaller than their JSON text.
  JsonValue stamps = JsonValue::Array();
  for (uint64_t i = 0; i < 1000; ++i) {
    stamps.Push(JsonValue::Uint(1000000000 + i * 4096));
  }
  const std::string encoded = EncodeJsonBinary(stamps);
  EXPECT_LT(encoded.size(), DumpText(stamps).size() / 3);
  const std::optional<JsonValue> decoded = DecodeJsonBinary(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == stamps);
}

TEST(BinaryJson, RejectsTruncationAtEveryPrefix) {
  const std::string encoded = EncodeJsonBinary(SampleDocument());
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::string error;
    EXPECT_FALSE(DecodeJsonBinary(std::string_view(encoded).substr(0, len), &error).has_value())
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(BinaryJson, RejectsTrailingGarbage) {
  std::string encoded = EncodeJsonBinary(JsonValue::Uint(7));
  encoded.push_back('\0');
  std::string error;
  EXPECT_FALSE(DecodeJsonBinary(encoded, &error).has_value());
}

TEST(BinaryJson, RejectsWrongMagicAndPayload) {
  std::string error;
  EXPECT_FALSE(DecodeJsonBinary("not a container", &error).has_value());
  const std::string trace = EncodeTraceBinary({});
  EXPECT_FALSE(DecodeJsonBinary(trace, &error).has_value());
  EXPECT_FALSE(DecodeTraceBinary(EncodeJsonBinary(JsonValue::Null()), &error).has_value());
}

std::vector<TraceBufferSnapshot> SampleTrace() {
  TraceBufferSnapshot buffer;
  buffer.label = "double-sided-vs-none";
  buffer.capacity = 4;
  buffer.emitted = 6;  // Two dropped: emitted > capacity must survive.
  buffer.events = {
      {100, TraceKind::kAct, 0, 0, 3, 4096, 0},
      {130, TraceKind::kBitFlip, 0, 1, 3, 4097, (uint64_t{3} << 32) | 4095},
      {131, TraceKind::kMitigationRefresh, 1, 0, 2, 2048, 1},
      {200, TraceKind::kPageMove, 0, 0, 0, 0, 0xdeadbeef},
  };
  TraceBufferSnapshot empty;
  empty.label = "idle";
  empty.capacity = 4;
  return {buffer, empty};
}

TEST(BinaryTrace, RoundTripsBuffersExactly) {
  const std::vector<TraceBufferSnapshot> buffers = SampleTrace();
  const std::string encoded = EncodeTraceBinary(buffers);
  ASSERT_EQ(SniffHtbPayload(encoded), HtbPayload::kTrace);
  std::string error;
  const auto decoded = DecodeTraceBinary(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ASSERT_EQ(decoded->size(), buffers.size());
  for (size_t i = 0; i < buffers.size(); ++i) {
    EXPECT_EQ((*decoded)[i].label, buffers[i].label);
    EXPECT_EQ((*decoded)[i].capacity, buffers[i].capacity);
    EXPECT_EQ((*decoded)[i].emitted, buffers[i].emitted);
    ASSERT_EQ((*decoded)[i].events.size(), buffers[i].events.size());
    for (size_t j = 0; j < buffers[i].events.size(); ++j) {
      const TraceEvent& want = buffers[i].events[j];
      const TraceEvent& got = (*decoded)[i].events[j];
      EXPECT_EQ(got.cycle, want.cycle);
      EXPECT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.channel, want.channel);
      EXPECT_EQ(got.rank, want.rank);
      EXPECT_EQ(got.bank, want.bank);
      EXPECT_EQ(got.row, want.row);
      EXPECT_EQ(got.arg, want.arg);
    }
  }
}

TEST(BinaryTrace, DecodedSnapshotsRenderIdenticalChromeJson) {
  TraceSink sink;
  TraceBuffer* buffer = sink.CreateBuffer("scenario-a");
  for (uint64_t i = 0; i < 64; ++i) {
    buffer->Emit(100 + i * 7, i % 2 == 0 ? TraceKind::kAct : TraceKind::kRd,
                 static_cast<uint8_t>(i % 2), 0, static_cast<uint8_t>(i % 8),
                 static_cast<uint32_t>(4096 + i), i);
  }
  buffer->Emit(1000, TraceKind::kBitFlip, 0, 0, 1, 4100, (uint64_t{1} << 32) | 4099);

  std::ostringstream direct;
  WriteChromeTrace(sink.SnapshotBuffers(), direct);

  const std::string encoded = EncodeTraceBinary(sink.SnapshotBuffers());
  const auto decoded = DecodeTraceBinary(encoded);
  ASSERT_TRUE(decoded.has_value());
  std::ostringstream from_binary;
  WriteChromeTrace(*decoded, from_binary);
  EXPECT_EQ(from_binary.str(), direct.str());
}

TEST(BinaryTrace, RejectsTruncation) {
  const std::string encoded = EncodeTraceBinary(SampleTrace());
  for (const size_t len : {size_t{0}, size_t{3}, size_t{5}, encoded.size() / 2,
                           encoded.size() - 1}) {
    std::string error;
    EXPECT_FALSE(DecodeTraceBinary(std::string_view(encoded).substr(0, len), &error).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(BinaryTrace, RejectsUnknownEventKinds) {
  // The retired value 13 and any byte past kPageMove come from a foreign
  // or corrupt file; each must fail with a message, not decode as "?".
  for (const uint8_t kind : {uint8_t{13}, uint8_t{18}, uint8_t{0xFF}}) {
    TraceBufferSnapshot buffer;
    buffer.label = "corrupt";
    buffer.capacity = 4;
    buffer.emitted = 1;
    buffer.events = {{100, static_cast<TraceKind>(kind), 0, 0, 0, 0, 0}};
    std::string error;
    EXPECT_FALSE(DecodeTraceBinary(EncodeTraceBinary({buffer}), &error).has_value())
        << "kind " << int{kind} << " decoded";
    EXPECT_NE(error.find("unknown trace event kind " + std::to_string(kind)), std::string::npos)
        << error;
  }
}

TEST(BinaryFile, ExtensionDispatchAndContentSniff) {
  const std::string dir = ::testing::TempDir() + "binary_file";
  std::filesystem::create_directories(dir);
  const JsonValue doc = SampleDocument();

  EXPECT_TRUE(IsBinaryTelemetryPath("out/metrics.htb"));
  EXPECT_FALSE(IsBinaryTelemetryPath("out/metrics.json"));
  EXPECT_FALSE(IsBinaryTelemetryPath("htb"));

  std::string error;
  ASSERT_TRUE(WriteTelemetryDocument(dir + "/doc.htb", doc, &error)) << error;
  ASSERT_TRUE(WriteTelemetryDocument(dir + "/doc.json", doc, &error)) << error;

  const auto binary_bytes = ReadFileBytes(dir + "/doc.htb", &error);
  ASSERT_TRUE(binary_bytes.has_value()) << error;
  EXPECT_EQ(SniffHtbPayload(*binary_bytes), HtbPayload::kJson);
  const auto json_bytes = ReadFileBytes(dir + "/doc.json", &error);
  ASSERT_TRUE(json_bytes.has_value()) << error;
  EXPECT_EQ(*json_bytes, DumpText(doc));

  // The reader dispatches on content: both paths land on the same tree,
  // and a .htb container renamed to .json still decodes.
  for (const char* name : {"/doc.htb", "/doc.json"}) {
    const auto read = ReadTelemetryDocument(dir + name, &error);
    ASSERT_TRUE(read.has_value()) << name << ": " << error;
    EXPECT_TRUE(*read == doc) << name;
  }
  std::filesystem::copy_file(dir + "/doc.htb", dir + "/mislabeled.json",
                             std::filesystem::copy_options::overwrite_existing);
  const auto mislabeled = ReadTelemetryDocument(dir + "/mislabeled.json", &error);
  ASSERT_TRUE(mislabeled.has_value()) << error;
  EXPECT_TRUE(*mislabeled == doc);

  EXPECT_FALSE(ReadTelemetryDocument(dir + "/absent.json", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(BinaryFile, TraceReadsAsItsChromeJsonTwin) {
  const std::string dir = ::testing::TempDir() + "binary_trace_file";
  std::filesystem::create_directories(dir);
  TraceSink sink;
  TraceBuffer* buffer = sink.CreateBuffer("scenario0.none.double-sided");
  for (uint64_t i = 0; i < 16; ++i) {
    buffer->Emit(50 + i * 3, i % 3 == 0 ? TraceKind::kRef : TraceKind::kAct, 0, 0,
                 static_cast<uint8_t>(i % 4), static_cast<uint32_t>(100 + i), i);
  }
  sink.CreateBuffer("empty");

  std::string error;
  ASSERT_TRUE(WriteTraceOutput(dir + "/trace.htb", sink.SnapshotBuffers(), &error)) << error;
  ASSERT_TRUE(WriteTraceOutput(dir + "/trace.json", sink.SnapshotBuffers(), &error)) << error;
  const auto json_bytes = ReadFileBytes(dir + "/trace.json", &error);
  ASSERT_TRUE(json_bytes.has_value()) << error;
  const auto twin = JsonValue::Parse(*json_bytes, &error);
  ASSERT_TRUE(twin.has_value()) << error;

  const auto from_binary = ReadTelemetryDocument(dir + "/trace.htb", &error);
  ASSERT_TRUE(from_binary.has_value()) << error;
  EXPECT_TRUE(*from_binary == *twin);
  ASSERT_NE(from_binary->Find("traceEvents"), nullptr);
  EXPECT_EQ(from_binary->Find("traceEvents")->size(), twin->Find("traceEvents")->size());

  // A corrupt trace container fails with the path in the message.
  const std::string encoded = EncodeTraceBinary(sink.SnapshotBuffers());
  std::ofstream(dir + "/truncated.htb", std::ios::binary)
      .write(encoded.data(), static_cast<std::streamsize>(encoded.size() - 1));
  EXPECT_FALSE(ReadTelemetryDocument(dir + "/truncated.htb", &error).has_value());
  EXPECT_NE(error.find("truncated.htb: "), std::string::npos) << error;
}

}  // namespace
}  // namespace ht
