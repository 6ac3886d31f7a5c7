// ReHype: microreboot-based hypervisor recovery (Section III-B), our
// re-implementation of the enhanced port described in Section IV.
//
// On detection: halt all CPUs but one, preserve the static-data subset and
// the allocated heap pages, boot a fresh hypervisor instance (simulated
// hardware bring-up with the measured latencies of Table II), re-integrate
// the preserved state, and resume with the same retry setup NiLiHype uses.
// The reboot re-initializes everything not explicitly preserved — which is
// the mechanical source of its small recovery-rate edge on corrupting
// fault types (Figure 2) and of its 713 ms latency (Table II).
#pragma once

#include "recovery/recovery_common.h"

namespace nlh::recovery {

class ReHype : public RecoveryMechanism {
 public:
  using RecoveryMechanism::RecoveryMechanism;

  std::string Name() const override { return "ReHype"; }

 private:
  bool Repair(hw::CpuId cpu, sim::Time detected_at,
              steps::StepRecorder& rec) override;
};

}  // namespace nlh::recovery
