#include "common/telemetry/binary.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace ht {
namespace {

// JSON payload value tags. kUintDeltaArray is the compression workhorse:
// sampler stamps, series rows, and histogram buckets are monotone or
// slowly-varying uint arrays that collapse to one-byte deltas.
enum ValueTag : uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagUint = 4,
  kTagDouble = 5,
  kTagString = 6,
  kTagArray = 7,
  kTagUintDeltaArray = 8,
  kTagObject = 9,
};

uint64_t ZigzagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
}

int64_t ZigzagDecode(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void PutVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

void PutZigzag(std::string& out, int64_t value) { PutVarint(out, ZigzagEncode(value)); }

void PutDouble(std::string& out, double value) {
  // Exact 8-byte little-endian IEEE-754: JsonDouble() reproduces the same
  // shortest-round-trip text after decode, which the byte-identity
  // contract depends on.
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

// Trace kinds a decoder accepts: 0..kEpochRollover and
// kDefenseTrigger..kPageMove. The gap (wire value 13) is retired, and any
// byte past kPageMove comes from a foreign or corrupt file.
static_assert(static_cast<uint8_t>(TraceKind::kEpochRollover) == 12 &&
                  static_cast<uint8_t>(TraceKind::kPageMove) == 17,
              "trace kind wire values must not move");
bool IsKnownTraceKind(uint8_t kind) {
  return kind <= static_cast<uint8_t>(TraceKind::kEpochRollover) ||
         (kind >= static_cast<uint8_t>(TraceKind::kDefenseTrigger) &&
          kind <= static_cast<uint8_t>(TraceKind::kPageMove));
}

// Bounds-checked reader over the payload bytes.
class Reader {
 public:
  Reader(std::string_view bytes, std::string* error) : bytes_(bytes), error_(error) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  bool Fail(const std::string& what) {
    if (ok_ && error_ != nullptr) {
      *error_ = what + " at byte " + std::to_string(pos_);
    }
    ok_ = false;
    return false;
  }

  bool ReadByte(uint8_t* out) {
    if (!ok_ || pos_ >= bytes_.size()) {
      return Fail("truncated input (byte)");
    }
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte = 0;
      if (!ReadByte(&byte)) {
        return Fail("truncated varint");
      }
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = value;
        return true;
      }
    }
    return Fail("varint overflows 64 bits");
  }

  bool ReadZigzag(int64_t* out) {
    uint64_t raw = 0;
    if (!ReadVarint(&raw)) {
      return false;
    }
    *out = ZigzagDecode(raw);
    return true;
  }

  bool ReadDouble(double* out) {
    if (!ok_ || remaining() < 8) {
      return Fail("truncated double");
    }
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  bool ReadString(uint64_t length, std::string* out) {
    if (!ok_ || remaining() < length) {
      return Fail("truncated string");
    }
    out->assign(bytes_.substr(pos_, length));
    pos_ += length;
    return true;
  }

 private:
  std::string_view bytes_;
  std::string* error_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- JSON payload ------------------------------------------------------------

class StringTable {
 public:
  uint64_t Intern(const std::string& text) {
    auto [it, inserted] = ids_.emplace(text, strings_.size());
    if (inserted) {
      strings_.push_back(text);
    }
    return it->second;
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::unordered_map<std::string, uint64_t> ids_;
  std::vector<std::string> strings_;
};

void CollectStrings(const JsonValue& value, StringTable& table) {
  switch (value.type()) {
    case JsonValue::Type::kString:
      table.Intern(value.as_string());
      break;
    case JsonValue::Type::kArray:
      for (const JsonValue& item : value.items()) {
        CollectStrings(item, table);
      }
      break;
    case JsonValue::Type::kObject:
      for (const auto& [key, member] : value.members()) {
        table.Intern(key);
        CollectStrings(member, table);
      }
      break;
    default:
      break;
  }
}

bool IsUintDeltaEligible(const JsonValue& array) {
  if (array.items().empty()) {
    return false;
  }
  for (const JsonValue& item : array.items()) {
    if (item.type() != JsonValue::Type::kUint) {
      return false;
    }
  }
  return true;
}

void EncodeValue(const JsonValue& value, StringTable& table, std::string& out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out.push_back(static_cast<char>(kTagNull));
      break;
    case JsonValue::Type::kBool:
      out.push_back(static_cast<char>(value.as_bool() ? kTagTrue : kTagFalse));
      break;
    case JsonValue::Type::kInt:
      out.push_back(static_cast<char>(kTagInt));
      PutZigzag(out, value.as_int());
      break;
    case JsonValue::Type::kUint:
      out.push_back(static_cast<char>(kTagUint));
      PutVarint(out, value.as_uint());
      break;
    case JsonValue::Type::kDouble:
      out.push_back(static_cast<char>(kTagDouble));
      PutDouble(out, value.as_double());
      break;
    case JsonValue::Type::kString:
      out.push_back(static_cast<char>(kTagString));
      PutVarint(out, table.Intern(value.as_string()));
      break;
    case JsonValue::Type::kArray:
      if (IsUintDeltaEligible(value)) {
        out.push_back(static_cast<char>(kTagUintDeltaArray));
        PutVarint(out, value.size());
        uint64_t prev = 0;
        for (size_t i = 0; i < value.size(); ++i) {
          const uint64_t current = value.at(i).as_uint();
          if (i == 0) {
            PutVarint(out, current);
          } else {
            // Mod-2^64 difference; the decoder adds it back mod 2^64, so
            // any value sequence round-trips.
            PutZigzag(out, static_cast<int64_t>(current - prev));
          }
          prev = current;
        }
      } else {
        out.push_back(static_cast<char>(kTagArray));
        PutVarint(out, value.size());
        for (const JsonValue& item : value.items()) {
          EncodeValue(item, table, out);
        }
      }
      break;
    case JsonValue::Type::kObject:
      out.push_back(static_cast<char>(kTagObject));
      PutVarint(out, value.members().size());
      for (const auto& [key, member] : value.members()) {
        PutVarint(out, table.Intern(key));
        EncodeValue(member, table, out);
      }
      break;
  }
}

constexpr int kMaxDepth = 96;

bool DecodeValue(Reader& reader, const std::vector<std::string>& strings, int depth,
                 JsonValue* out) {
  if (depth > kMaxDepth) {
    return reader.Fail("nesting too deep");
  }
  uint8_t tag = 0;
  if (!reader.ReadByte(&tag)) {
    return false;
  }
  switch (tag) {
    case kTagNull:
      *out = JsonValue::Null();
      return true;
    case kTagFalse:
      *out = JsonValue::Bool(false);
      return true;
    case kTagTrue:
      *out = JsonValue::Bool(true);
      return true;
    case kTagInt: {
      int64_t value = 0;
      if (!reader.ReadZigzag(&value)) {
        return false;
      }
      *out = JsonValue::Int(value);
      return true;
    }
    case kTagUint: {
      uint64_t value = 0;
      if (!reader.ReadVarint(&value)) {
        return false;
      }
      *out = JsonValue::Uint(value);
      return true;
    }
    case kTagDouble: {
      double value = 0.0;
      if (!reader.ReadDouble(&value)) {
        return false;
      }
      *out = JsonValue::Double(value);
      return true;
    }
    case kTagString: {
      uint64_t id = 0;
      if (!reader.ReadVarint(&id)) {
        return false;
      }
      if (id >= strings.size()) {
        return reader.Fail("string id out of range");
      }
      *out = JsonValue::Str(strings[id]);
      return true;
    }
    case kTagArray: {
      uint64_t count = 0;
      if (!reader.ReadVarint(&count)) {
        return false;
      }
      if (count > reader.remaining()) {
        return reader.Fail("array count exceeds input");
      }
      JsonValue array = JsonValue::Array();
      for (uint64_t i = 0; i < count; ++i) {
        JsonValue item;
        if (!DecodeValue(reader, strings, depth + 1, &item)) {
          return false;
        }
        array.Push(std::move(item));
      }
      *out = std::move(array);
      return true;
    }
    case kTagUintDeltaArray: {
      uint64_t count = 0;
      if (!reader.ReadVarint(&count)) {
        return false;
      }
      if (count > reader.remaining()) {
        return reader.Fail("delta-array count exceeds input");
      }
      JsonValue array = JsonValue::Array();
      uint64_t prev = 0;
      for (uint64_t i = 0; i < count; ++i) {
        if (i == 0) {
          if (!reader.ReadVarint(&prev)) {
            return false;
          }
        } else {
          int64_t delta = 0;
          if (!reader.ReadZigzag(&delta)) {
            return false;
          }
          prev += static_cast<uint64_t>(delta);
        }
        array.Push(JsonValue::Uint(prev));
      }
      *out = std::move(array);
      return true;
    }
    case kTagObject: {
      uint64_t count = 0;
      if (!reader.ReadVarint(&count)) {
        return false;
      }
      if (count > reader.remaining()) {
        return reader.Fail("object count exceeds input");
      }
      JsonValue object = JsonValue::Object();
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t key_id = 0;
        if (!reader.ReadVarint(&key_id)) {
          return false;
        }
        if (key_id >= strings.size()) {
          return reader.Fail("key id out of range");
        }
        JsonValue member;
        if (!DecodeValue(reader, strings, depth + 1, &member)) {
          return false;
        }
        object.Set(strings[key_id], std::move(member));
      }
      *out = std::move(object);
      return true;
    }
    default:
      return reader.Fail("unknown value tag " + std::to_string(tag));
  }
}

void PutHeader(std::string& out, HtbPayload payload) {
  out.append(kHtbMagic, sizeof(kHtbMagic));
  out.push_back(static_cast<char>(payload));
}

}  // namespace

bool IsBinaryTelemetryPath(std::string_view path) {
  const std::string_view ext = kHtbExtension;
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

std::optional<HtbPayload> SniffHtbPayload(std::string_view bytes) {
  if (bytes.size() < sizeof(kHtbMagic) + 1 ||
      bytes.compare(0, sizeof(kHtbMagic), kHtbMagic, sizeof(kHtbMagic)) != 0) {
    return std::nullopt;
  }
  const uint8_t payload = static_cast<uint8_t>(bytes[sizeof(kHtbMagic)]);
  if (payload != static_cast<uint8_t>(HtbPayload::kJson) &&
      payload != static_cast<uint8_t>(HtbPayload::kTrace)) {
    return std::nullopt;
  }
  return static_cast<HtbPayload>(payload);
}

std::string EncodeJsonBinary(const JsonValue& doc) {
  StringTable table;
  CollectStrings(doc, table);
  std::string body;
  EncodeValue(doc, table, body);

  std::string out;
  PutHeader(out, HtbPayload::kJson);
  PutVarint(out, table.strings().size());
  for (const std::string& text : table.strings()) {
    PutVarint(out, text.size());
    out.append(text);
  }
  out.append(body);
  return out;
}

std::optional<JsonValue> DecodeJsonBinary(std::string_view bytes, std::string* error) {
  if (SniffHtbPayload(bytes) != HtbPayload::kJson) {
    if (error != nullptr) {
      *error = "not a hammertime.bin.v1 JSON document";
    }
    return std::nullopt;
  }
  Reader reader(bytes.substr(sizeof(kHtbMagic) + 1), error);
  uint64_t string_count = 0;
  if (!reader.ReadVarint(&string_count)) {
    return std::nullopt;
  }
  if (string_count > reader.remaining()) {
    reader.Fail("string table count exceeds input");
    return std::nullopt;
  }
  std::vector<std::string> strings;
  strings.reserve(static_cast<size_t>(string_count));
  for (uint64_t i = 0; i < string_count; ++i) {
    uint64_t length = 0;
    std::string text;
    if (!reader.ReadVarint(&length) || !reader.ReadString(length, &text)) {
      return std::nullopt;
    }
    strings.push_back(std::move(text));
  }
  JsonValue doc;
  if (!DecodeValue(reader, strings, 0, &doc)) {
    return std::nullopt;
  }
  if (reader.remaining() != 0) {
    reader.Fail("trailing bytes after document");
    return std::nullopt;
  }
  return doc;
}

std::string EncodeTraceBinary(const std::vector<TraceBufferSnapshot>& buffers) {
  std::string out;
  PutHeader(out, HtbPayload::kTrace);
  PutVarint(out, buffers.size());
  for (const TraceBufferSnapshot& buffer : buffers) {
    PutVarint(out, buffer.label.size());
    out.append(buffer.label);
    PutVarint(out, buffer.capacity);
    PutVarint(out, buffer.emitted);
    PutVarint(out, buffer.events.size());
    uint64_t prev_cycle = 0;
    for (const TraceEvent& event : buffer.events) {
      // Cycles are near-monotone within a buffer, so the delta is usually
      // a one- or two-byte varint.
      PutZigzag(out, static_cast<int64_t>(event.cycle - prev_cycle));
      prev_cycle = event.cycle;
      out.push_back(static_cast<char>(event.kind));
      out.push_back(static_cast<char>(event.channel));
      out.push_back(static_cast<char>(event.rank));
      out.push_back(static_cast<char>(event.bank));
      PutVarint(out, event.row);
      PutVarint(out, event.arg);
    }
  }
  return out;
}

std::optional<std::vector<TraceBufferSnapshot>> DecodeTraceBinary(std::string_view bytes,
                                                                  std::string* error) {
  if (SniffHtbPayload(bytes) != HtbPayload::kTrace) {
    if (error != nullptr) {
      *error = "not a hammertime.bin.v1 trace";
    }
    return std::nullopt;
  }
  Reader reader(bytes.substr(sizeof(kHtbMagic) + 1), error);
  uint64_t buffer_count = 0;
  if (!reader.ReadVarint(&buffer_count)) {
    return std::nullopt;
  }
  if (buffer_count > reader.remaining()) {
    reader.Fail("buffer count exceeds input");
    return std::nullopt;
  }
  std::vector<TraceBufferSnapshot> buffers;
  buffers.reserve(static_cast<size_t>(buffer_count));
  for (uint64_t b = 0; b < buffer_count; ++b) {
    TraceBufferSnapshot buffer;
    uint64_t label_length = 0;
    if (!reader.ReadVarint(&label_length) || !reader.ReadString(label_length, &buffer.label) ||
        !reader.ReadVarint(&buffer.capacity) || !reader.ReadVarint(&buffer.emitted)) {
      return std::nullopt;
    }
    uint64_t event_count = 0;
    if (!reader.ReadVarint(&event_count)) {
      return std::nullopt;
    }
    // Each event is at least 6 bytes on the wire.
    if (event_count > reader.remaining() / 6 + 1) {
      reader.Fail("event count exceeds input");
      return std::nullopt;
    }
    buffer.events.reserve(static_cast<size_t>(event_count));
    uint64_t prev_cycle = 0;
    for (uint64_t i = 0; i < event_count; ++i) {
      TraceEvent event;
      int64_t delta = 0;
      uint8_t kind = 0;
      uint64_t row = 0;
      if (!reader.ReadZigzag(&delta) || !reader.ReadByte(&kind) ||
          !reader.ReadByte(&event.channel) || !reader.ReadByte(&event.rank) ||
          !reader.ReadByte(&event.bank) || !reader.ReadVarint(&row) ||
          !reader.ReadVarint(&event.arg)) {
        return std::nullopt;
      }
      prev_cycle += static_cast<uint64_t>(delta);
      event.cycle = prev_cycle;
      if (!IsKnownTraceKind(kind)) {
        reader.Fail("unknown trace event kind " + std::to_string(kind));
        return std::nullopt;
      }
      event.kind = static_cast<TraceKind>(kind);
      if (row > 0xFFFFFFFFull) {
        reader.Fail("row exceeds 32 bits");
        return std::nullopt;
      }
      event.row = static_cast<uint32_t>(row);
      buffer.events.push_back(event);
    }
    buffers.push_back(std::move(buffer));
  }
  if (reader.remaining() != 0) {
    reader.Fail("trailing bytes after trace");
    return std::nullopt;
  }
  return buffers;
}

bool WriteTelemetryDocument(const std::string& path, const JsonValue& doc, std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  if (IsBinaryTelemetryPath(path)) {
    const std::string encoded = EncodeJsonBinary(doc);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  } else {
    doc.Dump(out);
    out << "\n";
  }
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write failed for " + path;
    }
    return false;
  }
  return true;
}

std::optional<JsonValue> ReadTelemetryDocument(const std::string& path, std::string* error) {
  std::optional<std::string> bytes = ReadFileBytes(path, error);
  if (!bytes.has_value()) {
    return std::nullopt;
  }
  std::string parse_error;
  std::optional<JsonValue> doc;
  const std::optional<HtbPayload> payload = SniffHtbPayload(*bytes);
  if (payload == HtbPayload::kTrace) {
    // Rendered through the canonical Chrome-trace writer, so a .htb trace
    // reads as exactly the document its JSON twin parses to.
    if (auto buffers = DecodeTraceBinary(*bytes, &parse_error)) {
      std::ostringstream chrome;
      WriteChromeTrace(*buffers, chrome);
      doc = JsonValue::Parse(chrome.str(), &parse_error);
    }
  } else if (payload.has_value()) {
    doc = DecodeJsonBinary(*bytes, &parse_error);
  } else {
    doc = JsonValue::Parse(*bytes, &parse_error);
  }
  if (!doc.has_value() && error != nullptr) {
    *error = path + ": " + parse_error;
  }
  return doc;
}

bool WriteTraceOutput(const std::string& path, const std::vector<TraceBufferSnapshot>& buffers,
                      std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  if (IsBinaryTelemetryPath(path)) {
    const std::string encoded = EncodeTraceBinary(buffers);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  } else {
    WriteChromeTrace(buffers, out);
  }
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write failed for " + path;
    }
    return false;
  }
  return true;
}

std::optional<std::string> ReadFileBytes(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    if (error != nullptr) {
      *error = "read failed for " + path;
    }
    return std::nullopt;
  }
  return std::move(buffer).str();
}

}  // namespace ht
