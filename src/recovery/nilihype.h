// NiLiHype: microreset-based hypervisor recovery (Sections III-C, V).
//
// On detection: freeze every CPU, discard all hypervisor execution threads
// (reset the stacks), roll the hypervisor state forward to a consistent
// quiescent state via the Section V-A enhancements, set abandoned requests
// up for retry, and resume — no reboot, so total latency is dominated by
// the page-frame descriptor consistency scan (Table III: 21 of 22 ms).
#pragma once

#include "recovery/recovery_common.h"

namespace nlh::recovery {

class NiLiHype : public RecoveryMechanism {
 public:
  using RecoveryMechanism::RecoveryMechanism;

  std::string Name() const override { return "NiLiHype"; }

 private:
  bool Repair(hw::CpuId cpu, sim::Time detected_at,
              steps::StepRecorder& rec) override;
};

}  // namespace nlh::recovery
