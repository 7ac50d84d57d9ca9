#include "common/telemetry/trace.h"

#include <map>

#include "common/telemetry/json.h"

namespace ht {

const char* ToString(TraceKind kind) {
  switch (kind) {
    case TraceKind::kAct:
      return "ACT";
    case TraceKind::kPre:
      return "PRE";
    case TraceKind::kPreAll:
      return "PREA";
    case TraceKind::kRd:
      return "RD";
    case TraceKind::kWr:
      return "WR";
    case TraceKind::kRef:
      return "REF";
    case TraceKind::kRefSb:
      return "REFSB";
    case TraceKind::kRefNeighbors:
      return "REFN";
    case TraceKind::kBitFlip:
      return "FLIP";
    case TraceKind::kTrrRepair:
      return "TRR";
    case TraceKind::kActInterrupt:
      return "ACT_IRQ";
    case TraceKind::kMitigationRefresh:
      return "MITIG_REF";
    case TraceKind::kEpochRollover:
      return "REF_WINDOW";
    case TraceKind::kDefenseTrigger:
      return "DEFENSE";
    case TraceKind::kDefenseAction:
      return "DEFENSE_ACT";
    case TraceKind::kQuarantine:
      return "QUARANTINE";
    case TraceKind::kPageMove:
      return "PAGE_MOVE";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::string label, size_t capacity)
    : label_(std::move(label)), capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(static_cast<size_t>(capacity_));
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  ForEach([&](const TraceEvent& event) { out.push_back(event); });
  return out;
}

TraceBuffer* TraceSink::CreateBuffer(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>(label, buffer_capacity_));
  return buffers_.back().get();
}

size_t TraceSink::buffer_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

uint64_t TraceSink::total_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->events_emitted();
  }
  return total;
}

namespace {

// Track layout inside a channel "process": tid 0 is the controller, tids
// 1..15 the ranks (REF / PREA), and 16+ one track per (rank, bank).
constexpr uint32_t kControllerTid = 0;
constexpr uint32_t kRankTidBase = 1;
constexpr uint32_t kBankTidBase = 16;
constexpr uint32_t kBankTidStride = 32;  // Assumes <= 32 banks per rank.

// Synthetic processes for events that have no DRAM coordinate.
constexpr uint32_t kDefensePid = 900;
constexpr uint32_t kOsPid = 901;

struct Track {
  uint32_t pid = 0;
  uint32_t tid = 0;
};

Track TrackFor(const TraceEvent& event) {
  switch (event.kind) {
    case TraceKind::kDefenseTrigger:
    case TraceKind::kDefenseAction:
    case TraceKind::kQuarantine:
      return {kDefensePid, 1};
    case TraceKind::kPageMove:
      return {kOsPid, 1};
    case TraceKind::kActInterrupt:
    case TraceKind::kMitigationRefresh:
    case TraceKind::kEpochRollover:
      return {event.channel, kControllerTid};
    case TraceKind::kRef:
    case TraceKind::kPreAll:
      return {event.channel, kRankTidBase + event.rank};
    default:
      return {event.channel,
              kBankTidBase + static_cast<uint32_t>(event.rank) * kBankTidStride + event.bank};
  }
}

std::string TrackName(uint32_t pid, uint32_t tid) {
  if (pid == kDefensePid || pid == kOsPid) {
    return "events";
  }
  if (tid == kControllerTid) {
    return "mc";
  }
  if (tid < kBankTidBase) {
    return "rank" + std::to_string(tid - kRankTidBase);
  }
  const uint32_t rank = (tid - kBankTidBase) / kBankTidStride;
  const uint32_t bank = (tid - kBankTidBase) % kBankTidStride;
  return "r" + std::to_string(rank) + ".b" + std::to_string(bank);
}

void WriteEventJson(const TraceEvent& event, std::ostream& out) {
  const Track track = TrackFor(event);
  out << "{\"name\":\"" << ToString(event.kind)
      << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << event.cycle << ",\"pid\":" << track.pid
      << ",\"tid\":" << track.tid << ",\"args\":{";
  if (event.kind == TraceKind::kBitFlip) {
    out << "\"victim_row\":" << event.row << ",\"aggressor_row\":" << (event.arg & 0xFFFFFFFFu)
        << ",\"bits\":" << (event.arg >> 32);
  } else {
    out << "\"row\":" << event.row << ",\"arg\":" << event.arg;
  }
  out << "}}";
}

}  // namespace

void TraceSink::WriteChromeTrace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  bool first = true;
  // (pid, tid) -> track name; std::map keeps the metadata block ordered
  // so serial and parallel runs serialize identically.
  std::map<std::pair<uint32_t, uint32_t>, std::string> tracks;
  std::map<uint32_t, std::string> processes;
  for (const auto& buffer : buffers_) {
    buffer->ForEach([&](const TraceEvent& event) {
      if (!first) {
        out << ",\n";
      }
      first = false;
      WriteEventJson(event, out);
      const Track track = TrackFor(event);
      tracks.emplace(std::make_pair(track.pid, track.tid), TrackName(track.pid, track.tid));
      if (track.pid == kDefensePid) {
        processes.emplace(track.pid, "defense");
      } else if (track.pid == kOsPid) {
        processes.emplace(track.pid, "os");
      } else {
        processes.emplace(track.pid, "channel" + std::to_string(track.pid));
      }
    });
  }
  for (const auto& [pid, name] : processes) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":";
    JsonEscape(name, out);
    out << "}}";
  }
  for (const auto& [key, name] : tracks) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
        << ",\"tid\":" << key.second << ",\"args\":{\"name\":";
    JsonEscape(name, out);
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace ht
