#include "dram/device.h"

#include <algorithm>
#include <bit>

namespace ht {

DramDevice::DramDevice(const DramConfig& config, uint32_t channel_index)
    : config_(config),
      channel_index_(channel_index),
      timing_(config.org, config.timing, /*ref_neighbors_supported=*/true),
      data_(uint64_t{config.org.ranks} * config.org.banks * config.org.rows_per_bank(),
            config.org.columns, config.flip_seed ^ (0x9e37ULL * (channel_index + 1))),
      flip_bits_rng_(config.flip_seed ^ (0xB17f11bULL * (channel_index + 1))) {
  const uint32_t banks = config_.org.banks;
  units_.reserve(config_.org.ranks * banks);
  for (uint32_t r = 0; r < config_.org.ranks; ++r) {
    for (uint32_t b = 0; b < banks; ++b) {
      units_.emplace_back(config_.org, config_.disturbance, config_.remap);
      units_.back().last_repair.assign(config_.org.rows_per_bank(), 0);
    }
    trr_.emplace_back(config_.org, config_.trr,
                      config_.flip_seed ^ (0x7122ULL * (r + 1) * (channel_index + 1)));
  }
  ref_sweep_row_.assign(config_.org.ranks, 0);
  ref_sweep_row_sb_.assign(static_cast<size_t>(config_.org.ranks) * banks, 0);

  c_acts_ = stats_.counter("dram.acts");
  c_pres_ = stats_.counter("dram.pres");
  c_preas_ = stats_.counter("dram.preas");
  c_reads_ = stats_.counter("dram.reads");
  c_writes_ = stats_.counter("dram.writes");
  c_refs_ = stats_.counter("dram.refs");
  c_refs_sb_ = stats_.counter("dram.refs_sb");
  c_ref_neighbors_ = stats_.counter("dram.ref_neighbors");
  c_trr_repairs_ = stats_.counter("dram.trr_repairs");
  c_flip_events_ = stats_.counter("dram.flip_events");
  c_flipped_bits_ = stats_.counter("dram.flipped_bits");
  c_ecc_corrected_ = ecc_stats_.counter("dram.ecc_corrected");
  c_ecc_detected_ = ecc_stats_.counter("dram.ecc_detected");
  c_ecc_escaped_ = ecc_stats_.counter("dram.ecc_escaped");

  Counter* table_probes = stats_.counter("act.table_probes");
  for (BankUnit& u : units_) {
    u.disturbance.set_probe_counter(table_probes);
  }
}

uint64_t DramDevice::RowKey(uint32_t rank, uint32_t bank, uint32_t logical_row) const {
  return static_cast<uint64_t>(rank * config_.org.banks + bank) * config_.org.rows_per_bank() +
         logical_row;
}

TimingVerdict DramDevice::Issue(const DdrCommand& cmd, Cycle now) {
  const TimingVerdict verdict = timing_.Check(cmd, now);
  if (check_ != nullptr) {
    // The observer gets the remapped row for row-addressed commands so its
    // reference model works in internal coordinates without a remap copy.
    uint32_t internal_row = 0;
    if (cmd.type == DdrCommandType::kActivate ||
        cmd.type == DdrCommandType::kRefreshNeighbors) {
      internal_row = unit(cmd.rank, cmd.bank).remap_table.ToInternal(cmd.row);
    }
    check_->OnCommand(cmd, now, verdict, internal_row);
  }
  if (verdict != TimingVerdict::kOk) {
    stats_.Add("dram.illegal_commands");
    return verdict;
  }
  timing_.Record(cmd, now);
  const uint8_t ch = static_cast<uint8_t>(channel_index_);
  const uint8_t rk = static_cast<uint8_t>(cmd.rank);
  const uint8_t bk = static_cast<uint8_t>(cmd.bank);
  switch (cmd.type) {
    case DdrCommandType::kActivate:
      c_acts_->Increment();
      HT_TRACE(trace_, now, TraceKind::kAct, ch, rk, bk, cmd.row, 0);
      ApplyActivate(cmd.rank, cmd.bank, cmd.row, now);
      break;
    case DdrCommandType::kPrecharge:
      c_pres_->Increment();
      HT_TRACE(trace_, now, TraceKind::kPre, ch, rk, bk, 0, 0);
      break;
    case DdrCommandType::kPrechargeAll:
      c_preas_->Increment();
      HT_TRACE(trace_, now, TraceKind::kPreAll, ch, rk, 0, 0, 0);
      break;
    case DdrCommandType::kRead:
      c_reads_->Increment();
      HT_TRACE(trace_, now, TraceKind::kRd, ch, rk, bk, cmd.row, 0);
      break;
    case DdrCommandType::kWrite:
      c_writes_->Increment();
      HT_TRACE(trace_, now, TraceKind::kWr, ch, rk, bk, cmd.row, 0);
      break;
    case DdrCommandType::kRefresh:
      c_refs_->Increment();
      HT_TRACE(trace_, now, TraceKind::kRef, ch, rk, 0, 0, 0);
      ApplyRefresh(cmd.rank, now);
      break;
    case DdrCommandType::kRefreshSb:
      c_refs_sb_->Increment();
      HT_TRACE(trace_, now, TraceKind::kRefSb, ch, rk, bk, 0, 0);
      ApplyRefreshSb(cmd.rank, cmd.bank, now);
      break;
    case DdrCommandType::kRefreshNeighbors:
      c_ref_neighbors_->Increment();
      HT_TRACE(trace_, now, TraceKind::kRefNeighbors, ch, rk, bk, cmd.row, cmd.blast);
      ApplyRefreshNeighbors(cmd.rank, cmd.bank, cmd.row, cmd.blast, now);
      break;
  }
  if (check_ != nullptr) {
    check_->OnCommandApplied(cmd, now);
  }
  return TimingVerdict::kOk;
}

void DramDevice::ApplyActivate(uint32_t rank, uint32_t bank, uint32_t logical_row, Cycle now) {
  BankUnit& u = unit(rank, bank);
  const uint32_t internal = u.remap_table.ToInternal(logical_row);
  u.last_repair[internal] = now;

  std::vector<DisturbanceVictim> victims;
  u.disturbance.OnActivate(internal, victims);
  if (!victims.empty()) {
    RecordFlips(rank, bank, victims, now);
  }
  trr_[rank].OnActivate(bank, internal);
}

void DramDevice::RepairInternalRow(uint32_t rank, uint32_t bank, uint32_t internal_row,
                                   Cycle now) {
  BankUnit& u = unit(rank, bank);
  u.disturbance.OnRefreshRow(internal_row);
  u.last_repair[internal_row] = now;
  if (check_ != nullptr) {
    check_->OnRepair(rank, bank, internal_row, now);
  }
}

void DramDevice::ApplyRefresh(uint32_t rank, Cycle now) {
  // Sweep the next group of internal rows in every bank of the rank.
  const uint32_t rows_per_ref = config_.RowsPerRef();
  const uint32_t rows_per_bank = config_.org.rows_per_bank();
  const uint32_t start = ref_sweep_row_[rank];
  for (uint32_t bank = 0; bank < config_.org.banks; ++bank) {
    for (uint32_t i = 0; i < rows_per_ref; ++i) {
      RepairInternalRow(rank, bank, (start + i) % rows_per_bank, now);
    }
  }
  ref_sweep_row_[rank] = (start + rows_per_ref) % rows_per_bank;

  // TRR piggybacks targeted neighbour refreshes on the REF (§3).
  for (const TrrRepair& repair : trr_[rank].OnRefresh()) {
    c_trr_repairs_->Increment();
    HT_TRACE(trace_, now, TraceKind::kTrrRepair, static_cast<uint8_t>(channel_index_),
             static_cast<uint8_t>(rank), static_cast<uint8_t>(repair.bank), repair.internal_row,
             0);
    const uint32_t internal = repair.internal_row;
    const uint32_t subarray = config_.org.SubarrayOfRow(internal);
    for (uint32_t d = 1; d <= config_.disturbance.blast_radius; ++d) {
      if (internal >= d && config_.org.SubarrayOfRow(internal - d) == subarray) {
        RepairInternalRow(rank, repair.bank, internal - d, now);
      }
      const uint32_t above = internal + d;
      if (above < config_.org.rows_per_bank() && config_.org.SubarrayOfRow(above) == subarray) {
        RepairInternalRow(rank, repair.bank, above, now);
      }
    }
  }
}

void DramDevice::ApplyRefreshSb(uint32_t rank, uint32_t bank, Cycle now) {
  const uint32_t rows_per_ref = config_.RowsPerRef();
  const uint32_t rows_per_bank = config_.org.rows_per_bank();
  uint32_t& sweep = ref_sweep_row_sb_[static_cast<size_t>(rank) * config_.org.banks + bank];
  for (uint32_t i = 0; i < rows_per_ref; ++i) {
    RepairInternalRow(rank, bank, (sweep + i) % rows_per_bank, now);
  }
  sweep = (sweep + rows_per_ref) % rows_per_bank;

  // TRR can piggyback on same-bank refreshes too.
  for (const TrrRepair& repair : trr_[rank].OnRefresh()) {
    c_trr_repairs_->Increment();
    HT_TRACE(trace_, now, TraceKind::kTrrRepair, static_cast<uint8_t>(channel_index_),
             static_cast<uint8_t>(rank), static_cast<uint8_t>(repair.bank), repair.internal_row,
             0);
    const uint32_t internal = repair.internal_row;
    const uint32_t subarray = config_.org.SubarrayOfRow(internal);
    for (uint32_t d = 1; d <= config_.disturbance.blast_radius; ++d) {
      if (internal >= d && config_.org.SubarrayOfRow(internal - d) == subarray) {
        RepairInternalRow(rank, repair.bank, internal - d, now);
      }
      const uint32_t above = internal + d;
      if (above < config_.org.rows_per_bank() && config_.org.SubarrayOfRow(above) == subarray) {
        RepairInternalRow(rank, repair.bank, above, now);
      }
    }
  }
}

void DramDevice::ApplyRefreshNeighbors(uint32_t rank, uint32_t bank, uint32_t logical_row,
                                       uint32_t blast, Cycle now) {
  // The device knows its own internal layout, so REF_NEIGHBORS refreshes
  // *internal* neighbours — robust to remapping, unlike MC-side guesses.
  BankUnit& u = unit(rank, bank);
  const uint32_t internal = u.remap_table.ToInternal(logical_row);
  const uint32_t subarray = config_.org.SubarrayOfRow(internal);
  for (uint32_t d = 1; d <= blast; ++d) {
    if (internal >= d && config_.org.SubarrayOfRow(internal - d) == subarray) {
      RepairInternalRow(rank, bank, internal - d, now);
    }
    const uint32_t above = internal + d;
    if (above < config_.org.rows_per_bank() && config_.org.SubarrayOfRow(above) == subarray) {
      RepairInternalRow(rank, bank, above, now);
    }
  }
}

void DramDevice::RecordFlips(uint32_t rank, uint32_t bank,
                             const std::vector<DisturbanceVictim>& victims, Cycle now) {
  BankUnit& u = unit(rank, bank);
  for (const DisturbanceVictim& victim : victims) {
    const uint32_t logical_victim = u.remap_table.ToLogical(victim.row);
    const uint32_t logical_aggressor = u.remap_table.ToLogical(victim.aggressor_row);
    const uint32_t bits = static_cast<uint32_t>(flip_bits_rng_.NextInRange(
        config_.disturbance.min_flip_bits, config_.disturbance.max_flip_bits));
    const uint32_t applied = data_.FlipRandomBits(RowKey(rank, bank, logical_victim), bits);

    if (check_ != nullptr) {
      check_->OnFlip(rank, bank, victim.row, victim.aggressor_row, now);
    }
    ++total_flip_events_;
    c_flip_events_->Increment();
    c_flipped_bits_->Add(applied);
    HT_TRACE(trace_, now, TraceKind::kBitFlip, static_cast<uint8_t>(channel_index_),
             static_cast<uint8_t>(rank), static_cast<uint8_t>(bank), logical_victim,
             static_cast<uint64_t>(logical_aggressor) | (static_cast<uint64_t>(applied) << 32));
    if (flips_.size() < kMaxFlipRecords) {
      flips_.push_back({now, channel_index_, rank, bank, logical_victim, logical_aggressor,
                        config_.org.SubarrayOfRow(victim.row), applied});
    }
  }
}

void DramDevice::WriteLine(uint32_t rank, uint32_t bank, uint32_t row, uint32_t column,
                           uint64_t value) {
  data_.WriteLine(RowKey(rank, bank, row), column, value);
}

uint64_t DramDevice::ReadLine(uint32_t rank, uint32_t bank, uint32_t row, uint32_t column) const {
  const uint64_t key = RowKey(rank, bank, row);
  const uint64_t raw = data_.ReadLine(key, column);
  if (!config_.ecc.enabled) {
    return raw;
  }
  const uint64_t mask = data_.CorruptionMask(key, column);
  if (mask == 0) {
    return raw;
  }
  switch (std::popcount(mask)) {
    case 1:
      c_ecc_corrected_->Increment();
      return raw ^ mask;  // SECDED corrects the single flipped bit.
    case 2:
      c_ecc_detected_->Increment();  // Machine check on real HW.
      return raw;
    default:
      c_ecc_escaped_->Increment();  // Silent multi-bit corruption.
      return raw;
  }
}

uint64_t DramDevice::CountRetentionViolations(Cycle now) const {
  if (now < config_.retention.refresh_window) {
    return 0;
  }
  const Cycle horizon = now - config_.retention.refresh_window;
  uint64_t violations = 0;
  for (const BankUnit& u : units_) {
    for (Cycle last : u.last_repair) {
      if (last < horizon) {
        ++violations;
      }
    }
  }
  return violations;
}

uint32_t DramDevice::InternalSubarrayOf(uint32_t rank, uint32_t bank,
                                        uint32_t logical_row) const {
  return config_.org.SubarrayOfRow(unit(rank, bank).remap_table.ToInternal(logical_row));
}

uint32_t DramDevice::InternalRowOf(uint32_t rank, uint32_t bank, uint32_t logical_row) const {
  return unit(rank, bank).remap_table.ToInternal(logical_row);
}

double DramDevice::DisturbanceLevel(uint32_t rank, uint32_t bank, uint32_t logical_row) const {
  const BankUnit& u = unit(rank, bank);
  return u.disturbance.Level(u.remap_table.ToInternal(logical_row));
}

}  // namespace ht
