// A minimal ordered JSON document model for the telemetry layer: run
// reports are built as JsonValue trees and dumped deterministically
// (object keys keep insertion order, integers print exactly, doubles use
// shortest round-trip form), and emitted files are parsed back for
// schema validation (tools/trace_check, tests). Every telemetry file —
// run report, campaign report, cache cell, trace — is JSON text written
// and read through the file helpers at the bottom. Not a general-purpose
// JSON library: no comments, no \u surrogate pairs on output, numbers
// outside uint64/int64/double are rejected.
#ifndef HAMMERTIME_SRC_COMMON_TELEMETRY_JSON_H_
#define HAMMERTIME_SRC_COMMON_TELEMETRY_JSON_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ht {

class JsonValue {
 public:
  enum class Type : uint8_t { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  JsonValue() = default;  // null

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Int(int64_t value);
  static JsonValue Uint(uint64_t value);
  static JsonValue Double(double value);
  static JsonValue Str(std::string value);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kUint || type_ == Type::kDouble;
  }

  bool as_bool() const { return bool_; }
  uint64_t as_uint() const;
  int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const { return string_; }

  // --- Array ----------------------------------------------------------------
  JsonValue& Push(JsonValue value);  // Returns *this for chaining.
  size_t size() const { return items_.size(); }
  const JsonValue& at(size_t i) const { return items_[i]; }
  JsonValue& at(size_t i) { return items_[i]; }
  const std::vector<JsonValue>& items() const { return items_; }

  // --- Object ----------------------------------------------------------------
  // Insertion-ordered; Set replaces an existing key in place.
  JsonValue& Set(std::string key, JsonValue value);
  const JsonValue* Find(std::string_view key) const;
  JsonValue* Find(std::string_view key);
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }
  std::vector<std::pair<std::string, JsonValue>>& members() { return members_; }

  // --- Serialization ----------------------------------------------------------
  // Deterministic: same tree, same bytes. `indent` < 0 emits compact form.
  void Dump(std::ostream& out, int indent = 2, int depth = 0) const;
  std::string ToString(int indent = 2) const;

  // Returns nullopt on malformed input; `error` (if non-null) gets a short
  // description with the byte offset.
  static std::optional<JsonValue> Parse(std::string_view text, std::string* error = nullptr);

  // Structural equality. Numbers compare by numeric value across the
  // int/uint representations; int vs double never compares equal (so a
  // count that turned into a float is flagged, not forgiven).
  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Escapes `text` into a JSON string literal (with surrounding quotes).
void JsonEscape(std::string_view text, std::ostream& out);

// Shortest round-trip decimal form of `value` ("0" for zeros, "null" is
// never produced — non-finite values are clamped to 0).
std::string JsonDouble(double value);

// --- Files -------------------------------------------------------------------

// Writes what `write` emits to `path`. Returns false and fills `error`
// ("cannot open PATH" / "write failed for PATH") on I/O failure.
bool WriteTextFile(const std::string& path, const std::function<void(std::ostream&)>& write,
                   std::string* error = nullptr);

// Writes `doc` to `path` as Dump(2) plus a trailing newline.
bool WriteTelemetryDocument(const std::string& path, const JsonValue& doc,
                            std::string* error = nullptr);

// Reads and parses the JSON document at `path`; nullopt with `error`
// naming the path when it cannot be read or does not parse.
std::optional<JsonValue> ReadTelemetryDocument(const std::string& path,
                                               std::string* error = nullptr);

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_TELEMETRY_JSON_H_
