// Physical-address to DDR-logical-address mapping (§2.1: "the memory
// controller converts requests targeting CPU physical addresses into
// commands targeting DDR logical addresses ... according to a fixed
// mapping determined by BIOS settings").
//
// Four BIOS-selectable schemes are modeled:
//  * kBankSequential  — no interleaving: consecutive lines fill a row,
//                       then the next row of the same bank. The BIOS
//                       fallback §4.1 calls "an undesirable solution".
//  * kCacheLine       — classic fine-grained interleaving: consecutive
//                       lines rotate channel → rank → bank, achieving
//                       bank-level parallelism but mixing every page
//                       across every bank (the isolation problem).
//  * kPermutation     — cache-line interleaving with the bank index
//                       permuted by row bits (Zhang et al. [63]) to cut
//                       row-buffer conflicts for strided streams.
//  * kSubarrayIsolated— the paper's proposed primitive (§4.1, Fig. 2):
//                       identical bank-level interleaving, but the
//                       subarray index is taken from the top physical
//                       bits, so the OS can pin each trust domain to its
//                       own subarray group while keeping interleaving.
//
// Every geometry field (channels, ranks, banks, columns, subarrays per
// bank, rows per subarray) must be a power of two, as on real DDR parts,
// so each scheme is a split of the line index into bit fields: mapping
// is shift-and-mask, with no division.
#ifndef HAMMERTIME_SRC_MC_ADDRMAP_H_
#define HAMMERTIME_SRC_MC_ADDRMAP_H_

#include <bit>
#include <cstdint>

#include "common/types.h"
#include "dram/config.h"

namespace ht {

enum class InterleaveScheme : uint8_t {
  kBankSequential,
  kCacheLine,
  kPermutation,
  kSubarrayIsolated,
};

const char* ToString(InterleaveScheme scheme);

class AddressMapper {
 public:
  // Aborts, naming the field, when a geometry field is not a power of two.
  AddressMapper(const DramOrg& org, InterleaveScheme scheme);

  // Total mappable lines / bytes.
  uint64_t total_lines() const { return total_lines_; }
  uint64_t capacity_bytes() const { return total_lines_ * kLineBytes; }

  // Maps a line-aligned physical address to its DDR coordinate.
  DdrCoord Map(PhysAddr addr) const { return MapLine(addr / kLineBytes); }
  DdrCoord MapLine(uint64_t line) const;

  // Inverse mapping: DDR coordinate back to the line index / address.
  uint64_t LineOf(const DdrCoord& coord) const;
  PhysAddr AddrOf(const DdrCoord& coord) const { return LineOf(coord) * kLineBytes; }

  InterleaveScheme scheme() const { return scheme_; }
  const DramOrg& org() const { return org_; }

  // For kSubarrayIsolated: physical frames are partitioned into
  // `subarrays_per_bank` equal contiguous bands; band i maps onto
  // subarray i of every bank. These helpers let the OS allocator find a
  // band's frame range.
  uint64_t LinesPerSubarrayBand() const { return total_lines_ >> subarray_bits_; }
  uint32_t SubarrayBandOfLine(uint64_t line) const {
    return static_cast<uint32_t>(line >> std::countr_zero(LinesPerSubarrayBand()));
  }

 private:
  DramOrg org_;
  InterleaveScheme scheme_;
  // log2 of each geometry field; row_bits_ covers a whole bank's rows.
  uint32_t channel_bits_;
  uint32_t rank_bits_;
  uint32_t bank_bits_;
  uint32_t column_bits_;
  uint32_t subarray_bits_;
  uint32_t row_bits_;
  uint64_t total_lines_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_MC_ADDRMAP_H_
