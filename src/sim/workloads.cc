#include "sim/workloads.h"

#include <numeric>

#include "os/kernel.h"

namespace ht {

StreamWorkload::StreamWorkload(DomainId domain, VirtAddr base, uint64_t bytes,
                               uint64_t total_ops, double write_fraction, uint64_t seed)
    : domain_(domain), base_(base), lines_(bytes / kLineBytes), total_ops_(total_ops),
      write_fraction_(write_fraction), rng_(seed) {}

CoreOp StreamWorkload::Next() {
  if (issued_ >= total_ops_ || lines_ == 0) {
    return CoreOp::Halt();
  }
  ++issued_;
  const VirtAddr va = base_ + (cursor_ % lines_) * kLineBytes;
  ++cursor_;
  if (rng_.NextBool(write_fraction_)) {
    return CoreOp::Store(va, HostKernel::PatternValue(domain_, va));
  }
  return CoreOp::Load(va);
}

RandomWorkload::RandomWorkload(DomainId domain, VirtAddr base, uint64_t bytes,
                               uint64_t total_ops, double write_fraction, uint64_t seed)
    : domain_(domain), base_(base), lines_(bytes / kLineBytes), total_ops_(total_ops),
      write_fraction_(write_fraction), rng_(seed) {}

CoreOp RandomWorkload::Next() {
  if (issued_ >= total_ops_ || lines_ == 0) {
    return CoreOp::Halt();
  }
  ++issued_;
  const VirtAddr va = base_ + rng_.NextBelow(lines_) * kLineBytes;
  if (rng_.NextBool(write_fraction_)) {
    return CoreOp::Store(va, HostKernel::PatternValue(domain_, va));
  }
  return CoreOp::Load(va);
}

HotspotWorkload::HotspotWorkload(VirtAddr base, uint64_t bytes, uint64_t total_ops,
                                 double hot_fraction, uint64_t hot_lines, uint64_t seed)
    : base_(base), lines_(bytes / kLineBytes), total_ops_(total_ops),
      hot_fraction_(hot_fraction), hot_lines_(std::min(hot_lines, bytes / kLineBytes)),
      rng_(seed) {}

CoreOp HotspotWorkload::Next() {
  if (issued_ >= total_ops_ || lines_ == 0) {
    return CoreOp::Halt();
  }
  ++issued_;
  uint64_t line;
  if (hot_lines_ > 0 && rng_.NextBool(hot_fraction_)) {
    line = rng_.NextBelow(hot_lines_);
  } else {
    line = rng_.NextBelow(lines_);
  }
  return CoreOp::Load(base_ + line * kLineBytes);
}

PointerChaseWorkload::PointerChaseWorkload(VirtAddr base, uint64_t bytes, uint64_t total_ops,
                                           uint64_t seed)
    : base_(base), total_ops_(total_ops) {
  const uint64_t lines = std::max<uint64_t>(1, bytes / kLineBytes);
  // Sattolo's algorithm: a single cycle covering every line.
  std::vector<uint32_t> order(lines);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (uint64_t i = lines - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i)]);
  }
  next_line_.assign(lines, 0);
  for (uint64_t i = 0; i < lines; ++i) {
    next_line_[order[i]] = order[(i + 1) % lines];
  }
}

CoreOp PointerChaseWorkload::Next() {
  if (issued_ >= total_ops_) {
    return CoreOp::Halt();
  }
  ++issued_;
  cursor_ = next_line_[cursor_];
  return CoreOp::Load(base_ + static_cast<VirtAddr>(cursor_) * kLineBytes);
}

namespace {

// Registry table in the style of scenario.cc's KindEntry registries:
// canonical name + factory. Declaration order is the canonical listing
// order reported by AllWorkloadKinds().
struct WorkloadEntry {
  const char* name;
  WorkloadFactory factory;
};

const WorkloadEntry kWorkloadKinds[] = {
    {"stream",
     [](const WorkloadParams& p) -> std::unique_ptr<InstructionStream> {
       return std::make_unique<StreamWorkload>(p.domain, p.base, p.bytes, p.total_ops, 0.2,
                                               p.seed);
     }},
    {"random",
     [](const WorkloadParams& p) -> std::unique_ptr<InstructionStream> {
       return std::make_unique<RandomWorkload>(p.domain, p.base, p.bytes, p.total_ops, 0.2,
                                               p.seed);
     }},
    {"hotspot",
     [](const WorkloadParams& p) -> std::unique_ptr<InstructionStream> {
       return std::make_unique<HotspotWorkload>(p.base, p.bytes, p.total_ops, 0.9, 64, p.seed);
     }},
    {"chase",
     [](const WorkloadParams& p) -> std::unique_ptr<InstructionStream> {
       return std::make_unique<PointerChaseWorkload>(p.base, p.bytes, p.total_ops, p.seed);
     }},
};

}  // namespace

const std::vector<std::string>& AllWorkloadKinds() {
  static const std::vector<std::string> kinds = [] {
    std::vector<std::string> names;
    for (const WorkloadEntry& entry : kWorkloadKinds) {
      names.push_back(entry.name);
    }
    return names;
  }();
  return kinds;
}

bool IsWorkloadKind(const std::string& kind) { return WorkloadFactoryFor(kind) != nullptr; }

WorkloadFactory WorkloadFactoryFor(const std::string& kind) {
  for (const WorkloadEntry& entry : kWorkloadKinds) {
    if (kind == entry.name) {
      return entry.factory;
    }
  }
  return nullptr;
}

std::unique_ptr<InstructionStream> MakeWorkload(const std::string& kind,
                                                const WorkloadParams& params) {
  const WorkloadFactory factory = WorkloadFactoryFor(kind);
  return factory == nullptr ? nullptr : factory(params);
}

std::unique_ptr<InstructionStream> MakeWorkload(const std::string& kind, DomainId domain,
                                                VirtAddr base, uint64_t bytes,
                                                uint64_t total_ops, uint64_t seed) {
  return MakeWorkload(kind, WorkloadParams{domain, base, bytes, total_ops, seed});
}

}  // namespace ht
