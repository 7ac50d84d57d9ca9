#include "mc/addrmap.h"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace ht {

const char* ToString(InterleaveScheme scheme) {
  switch (scheme) {
    case InterleaveScheme::kBankSequential:
      return "bank-sequential";
    case InterleaveScheme::kCacheLine:
      return "cache-line";
    case InterleaveScheme::kPermutation:
      return "permutation";
    case InterleaveScheme::kSubarrayIsolated:
      return "subarray-isolated";
  }
  return "?";
}

namespace {

// log2 of a geometry field; refuses (aborts, naming the field) any value
// that is not a power of two, zero included.
uint32_t FieldBits(const char* name, uint32_t value) {
  if (!std::has_single_bit(value)) {
    std::fprintf(stderr,
                 "AddressMapper: unsupported organization: %s = %u; every geometry field "
                 "must be a power of two\n",
                 name, value);
    std::abort();
  }
  return static_cast<uint32_t>(std::countr_zero(value));
}

}  // namespace

AddressMapper::AddressMapper(const DramOrg& org, InterleaveScheme scheme)
    : org_(org),
      scheme_(scheme),
      channel_bits_(FieldBits("channels", org.channels)),
      rank_bits_(FieldBits("ranks", org.ranks)),
      bank_bits_(FieldBits("banks", org.banks)),
      column_bits_(FieldBits("columns", org.columns)),
      subarray_bits_(FieldBits("subarrays_per_bank", org.subarrays_per_bank)),
      row_bits_(subarray_bits_ + FieldBits("rows_per_subarray", org.rows_per_subarray)) {
  total_lines_ = uint64_t{1} << (channel_bits_ + rank_bits_ + bank_bits_ + row_bits_ +
                                 column_bits_);
}

// Every scheme splits the line index into bit fields. The subarray-isolated
// layout takes the subarray index from the top bits, above the row within
// the subarray, so its row field is the cache-line layout's: the two differ
// only in what the OS may assume about frame bands.
DdrCoord AddressMapper::MapLine(uint64_t line) const {
  DdrCoord coord;
  uint64_t l = line;
  auto take = [&l](uint32_t bits) {
    const auto field = static_cast<uint32_t>(l & ((uint64_t{1} << bits) - 1));
    l >>= bits;
    return field;
  };
  if (scheme_ == InterleaveScheme::kBankSequential) {
    coord.column = take(column_bits_);
    coord.row = take(row_bits_);
    coord.bank = take(bank_bits_);
    coord.rank = take(rank_bits_);
    coord.channel = static_cast<uint32_t>(l);
    return coord;
  }
  coord.channel = take(channel_bits_);
  coord.rank = take(rank_bits_);
  coord.bank = take(bank_bits_);
  coord.column = take(column_bits_);
  coord.row = static_cast<uint32_t>(l);
  if (scheme_ == InterleaveScheme::kPermutation) {
    coord.bank = (coord.bank + coord.row) & (org_.banks - 1);
  }
  return coord;
}

uint64_t AddressMapper::LineOf(const DdrCoord& coord) const {
  uint64_t l = 0;
  auto put = [&l](uint32_t bits, uint32_t field) { l = (l << bits) + field; };
  if (scheme_ == InterleaveScheme::kBankSequential) {
    put(0, coord.channel);
    put(rank_bits_, coord.rank);
    put(bank_bits_, coord.bank);
    put(row_bits_, coord.row);
    put(column_bits_, coord.column);
    return l;
  }
  uint32_t bank = coord.bank;
  if (scheme_ == InterleaveScheme::kPermutation) {
    bank = (coord.bank - coord.row) & (org_.banks - 1);
  }
  put(0, coord.row);
  put(column_bits_, coord.column);
  put(bank_bits_, bank);
  put(rank_bits_, coord.rank);
  put(channel_bits_, coord.channel);
  return l;
}

}  // namespace ht
