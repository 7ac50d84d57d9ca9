// Storage for row contents plus bit-flip corruption injection.
//
// To keep memory bounded we store one 64-bit word per cache-line-sized
// column — enough to detect and localize corruption (which line of which
// row, which bit) without holding 64 bytes per line. Experiments write
// known patterns and later verify them; a Rowhammer flip XORs a random bit
// of a random column, so verification fails exactly like it would on real
// hardware.
//
// Rows are addressed by a dense key in [0, rows) (DramDevice::RowKey):
// the row table holds one pointer per row, and a row's words are
// allocated on its first write.
#ifndef HAMMERTIME_SRC_DRAM_DATA_STORE_H_
#define HAMMERTIME_SRC_DRAM_DATA_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace ht {

class RowDataStore {
 public:
  RowDataStore(uint64_t rows, uint32_t columns, uint64_t flip_seed)
      : columns_(columns), rng_(flip_seed), rows_(rows) {}

  // Writes the representative word for (row_key, column).
  void WriteLine(uint64_t row_key, uint32_t column, uint64_t value);

  // Reads the representative word; rows never written read as zero.
  uint64_t ReadLine(uint64_t row_key, uint32_t column) const {
    const uint64_t* row = rows_[Checked(row_key)].get();
    return row == nullptr ? 0 : row[column];
  }

  // Whether any line of the row has ever been written.
  bool RowPopulated(uint64_t row_key) const { return rows_[Checked(row_key)] != nullptr; }

  // Flips `bits` random bits across the row. Returns the number of bits
  // actually flipped in stored data (0 if the row was never written; the
  // caller still records the flip event).
  uint32_t FlipRandomBits(uint64_t row_key, uint32_t bits);

  // XOR distance between the stored word and the last written (clean)
  // word — the accumulated Rowhammer corruption of that word. Writes
  // clear it. ECC decisions key off its popcount.
  uint64_t CorruptionMask(uint64_t row_key, uint32_t column) const;

  size_t populated_rows() const {
    return static_cast<size_t>(
        std::count_if(rows_.begin(), rows_.end(), [](const auto& row) { return row != nullptr; }));
  }

 private:
  // The row-table index for `row_key`; aborts on a key outside [0, rows).
  size_t Checked(uint64_t row_key) const {
    if (row_key >= rows_.size()) [[unlikely]] {
      KeyOutOfRange(row_key);
    }
    return static_cast<size_t>(row_key);
  }
  [[noreturn]] void KeyOutOfRange(uint64_t row_key) const;

  uint64_t MaskKey(uint64_t row_key, uint32_t column) const {
    return row_key * columns_ + column;
  }

  uint32_t columns_;
  Rng rng_;
  std::vector<std::unique_ptr<uint64_t[]>> rows_;  // Null until first written.
  std::unordered_map<uint64_t, uint64_t> corruption_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_DRAM_DATA_STORE_H_
