// On-disk result cache for the sweep engine: one JSON document per grid
// cell (`hammertime.sweep_cell.v1`), stored under
// `<dir>/cell_<key>.json` where <key> is the stable hash of the cell's
// canonical spec serialization (see sweep.h). Entries are written
// atomically (tmp file + rename) so a sweep killed mid-store never leaves
// a half-written cell, and every load re-derives the key from the stored
// spec — a corrupt, truncated, or hand-edited entry fails validation and
// is recomputed rather than trusted.
#ifndef HAMMERTIME_SRC_SIM_SWEEP_CACHE_H_
#define HAMMERTIME_SRC_SIM_SWEEP_CACHE_H_

#include <optional>
#include <string>

#include "common/telemetry/json.h"

namespace ht {

inline constexpr const char* kSweepCellSchema = "hammertime.sweep_cell.v1";

// Validates one cached cell document against `key`: schema string, a
// "key" member equal to `key`, a "spec" object whose canonical key
// re-derivation (SweepKeyFromJson) also equals `key`, a "result" object,
// and a "stats" StatSet snapshot. On failure, `error` (if non-null)
// names the first problem.
bool ValidateSweepCell(const JsonValue& doc, const std::string& key, std::string* error = nullptr);

class ResultCache {
 public:
  // An empty `dir` disables the cache (Load always misses, Store is a
  // no-op). The directory is created on first Store.
  explicit ResultCache(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  std::string PathFor(const std::string& key) const;

  // Returns the parsed, validated cell document, or nullopt when missing
  // or invalid (invalid entries are treated as cache misses; the caller
  // recomputes and overwrites them). `why` (if non-null) receives the
  // validation error for diagnostics.
  std::optional<JsonValue> Load(const std::string& key, std::string* why = nullptr) const;

  // Atomically persists `cell` (which must already carry schema/key/spec/
  // result). Returns false on I/O failure with a message in `error`.
  bool Store(const std::string& key, const JsonValue& cell, std::string* error = nullptr) const;

 private:
  std::string dir_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_SWEEP_CACHE_H_
