#include "sim/sweep/cache.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "sim/sweep/speckey.h"

namespace ht {

bool ValidateSweepCell(const JsonValue& doc, const std::string& key, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  if (doc.type() != JsonValue::Type::kObject) {
    return fail("cell document is not an object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->type() != JsonValue::Type::kString ||
      schema->as_string() != kSweepCellSchema) {
    return fail(std::string("schema is not ") + kSweepCellSchema);
  }
  const JsonValue* stored_key = doc.Find("key");
  if (stored_key == nullptr || stored_key->type() != JsonValue::Type::kString ||
      stored_key->as_string() != key) {
    return fail("stored key does not match " + key);
  }
  const JsonValue* spec = doc.Find("spec");
  if (spec == nullptr || spec->type() != JsonValue::Type::kObject) {
    return fail("missing spec object");
  }
  // The load-bearing integrity check: re-derive the key from the stored
  // spec. A truncated or hand-edited spec cannot keep hashing to the file
  // it sits in.
  if (SweepKeyFromJson(*spec) != key) {
    return fail("spec does not hash to key " + key);
  }
  std::string spec_error;
  if (!SpecFromCanonicalJson(*spec, &spec_error).has_value()) {
    return fail("stored spec is not runnable: " + spec_error);
  }
  const JsonValue* result = doc.Find("result");
  if (result == nullptr || result->type() != JsonValue::Type::kObject) {
    return fail("missing result object");
  }
  const JsonValue* stats = doc.Find("stats");
  if (stats == nullptr || stats->type() != JsonValue::Type::kObject) {
    return fail("missing stats object");
  }
  return true;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::PathFor(const std::string& key) const {
  return dir_ + "/cell_" + key + ".json";
}

std::optional<JsonValue> ResultCache::Load(const std::string& key, std::string* why) const {
  if (!enabled()) {
    if (why != nullptr) {
      *why = "cache disabled";
    }
    return std::nullopt;
  }
  std::string read_error;
  std::optional<JsonValue> doc = ReadTelemetryDocument(PathFor(key), &read_error);
  if (!doc.has_value()) {
    if (why != nullptr) {
      *why = "no usable cache entry: " + read_error;
    }
    return std::nullopt;
  }
  if (!ValidateSweepCell(*doc, key, why)) {
    return std::nullopt;
  }
  return doc;
}

bool ResultCache::Store(const std::string& key, const JsonValue& cell, std::string* error) const {
  if (!enabled()) {
    return true;
  }
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return fail("cannot create " + dir_ + ": " + ec.message());
  }
  const std::string final_path = PathFor(key);
  const std::string tmp_path = final_path + ".tmp";
  std::string write_error;
  if (!WriteTelemetryDocument(tmp_path, cell, &write_error)) {
    return fail(write_error);
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return fail("cannot rename " + tmp_path + ": " + ec.message());
  }
  return true;
}

}  // namespace ht
