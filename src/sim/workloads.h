// Benign workload generators (instruction streams) used by the
// performance experiments: sequential streaming, uniform random access,
// zipf-like hotspot access, and dependent pointer chasing.
#ifndef HAMMERTIME_SRC_SIM_WORKLOADS_H_
#define HAMMERTIME_SRC_SIM_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "cpu/core_ops.h"

namespace ht {

// Sequential read/write sweep over a VA region (STREAM-like). Stores
// write the domain's golden pattern value, so benign writes never read
// as corruption during verification.
class StreamWorkload : public InstructionStream {
 public:
  StreamWorkload(DomainId domain, VirtAddr base, uint64_t bytes, uint64_t total_ops,
                 double write_fraction = 0.0, uint64_t seed = 1);

  CoreOp Next() override;
  uint32_t IlpHint() const override { return 16; }

 private:
  DomainId domain_;
  VirtAddr base_;
  uint64_t lines_;
  uint64_t total_ops_;
  double write_fraction_;
  Rng rng_;
  uint64_t issued_ = 0;
  uint64_t cursor_ = 0;
};

// Uniform random line accesses over a VA region.
class RandomWorkload : public InstructionStream {
 public:
  RandomWorkload(DomainId domain, VirtAddr base, uint64_t bytes, uint64_t total_ops,
                 double write_fraction, uint64_t seed);

  CoreOp Next() override;
  uint32_t IlpHint() const override { return 16; }

 private:
  DomainId domain_;
  VirtAddr base_;
  uint64_t lines_;
  uint64_t total_ops_;
  double write_fraction_;
  Rng rng_;
  uint64_t issued_ = 0;
};

// Skewed access: `hot_fraction` of accesses go to a small hot set.
class HotspotWorkload : public InstructionStream {
 public:
  HotspotWorkload(VirtAddr base, uint64_t bytes, uint64_t total_ops, double hot_fraction,
                  uint64_t hot_lines, uint64_t seed);

  CoreOp Next() override;
  uint32_t IlpHint() const override { return 16; }

 private:
  VirtAddr base_;
  uint64_t lines_;
  uint64_t total_ops_;
  double hot_fraction_;
  uint64_t hot_lines_;
  Rng rng_;
  uint64_t issued_ = 0;
};

// Dependent loads over a random permutation cycle (latency-bound, ILP 1).
class PointerChaseWorkload : public InstructionStream {
 public:
  PointerChaseWorkload(VirtAddr base, uint64_t bytes, uint64_t total_ops, uint64_t seed);

  CoreOp Next() override;
  uint32_t IlpHint() const override { return 1; }

 private:
  VirtAddr base_;
  std::vector<uint32_t> next_line_;  // Permutation cycle.
  uint64_t total_ops_;
  uint64_t issued_ = 0;
  uint32_t cursor_ = 0;
};

// Everything a workload constructor needs, bundled so registry entries
// share one signature. Kinds that ignore a field (e.g. hotspot/chase
// never store) simply do not read it.
struct WorkloadParams {
  DomainId domain = kInvalidDomain;
  VirtAddr base = 0;
  uint64_t bytes = 0;
  uint64_t total_ops = 0;
  uint64_t seed = 1;
};

// String-keyed workload registry, mirroring the defense/hw/attack kind
// registries in sim/scenario.h: canonical names are what CLIs, sweep
// specs, and tenant traffic mixes address workloads by.
using WorkloadFactory = std::unique_ptr<InstructionStream> (*)(const WorkloadParams&);

// All canonical workload kind names, in registration order.
const std::vector<std::string>& AllWorkloadKinds();
// True iff `kind` names a registered workload.
bool IsWorkloadKind(const std::string& kind);
// Factory for `kind`, or nullptr if unknown.
WorkloadFactory WorkloadFactoryFor(const std::string& kind);

// Registry-backed construction. Returns nullptr for unknown kinds.
std::unique_ptr<InstructionStream> MakeWorkload(const std::string& kind,
                                                const WorkloadParams& params);

// Back-compatible factory by name, for sweep-style experiment tables.
std::unique_ptr<InstructionStream> MakeWorkload(const std::string& kind, DomainId domain,
                                                VirtAddr base, uint64_t bytes,
                                                uint64_t total_ops, uint64_t seed);

}  // namespace ht

#endif  // HAMMERTIME_SRC_SIM_WORKLOADS_H_
