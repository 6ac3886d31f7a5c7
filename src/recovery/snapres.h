// SnapRes: snapshot/rollback hypervisor recovery.
//
// A third point in the design space between NiLiHype's pure roll-forward
// and ReHype's reboot: the mechanism periodically snapshots the
// hypervisor's *control state* — the static segment, lock states, heap
// metadata, timer wheels, per-CPU blocks and device routing (the structure
// list hv::Hypervisor::VisitControlState walks) — and on detection rolls
// that state back to the last snapshot. Guest-facing state (frame table,
// vCPUs, domains) is preserved in place across the rollback, exactly like
// ReHype preserves VM state across its reboot, and is then reconciled by
// the same roll-forward machinery NiLiHype uses: undo-log replay and
// retry setup for in-flight requests, the page-frame consistency scan,
// and scheduling-metadata reconstruction from the preserved vCPU array.
//
// The trade: rollback repairs corruption classes roll-forward repairs
// cannot (clobbered statics, a corrupted heap free list) at microreset
// speed instead of reboot speed — but it pays a continuous runtime
// overhead (the periodic capture, charged per epoch as hypervisor cycles)
// and discards legitimate post-snapshot control-state changes, which the
// roll-forward reconciliation must then re-derive or the run absorbs as
// latent inconsistency.
#pragma once

#include <cstdint>

#include "recovery/recovery_common.h"
#include "sim/state_image.h"

namespace nlh::recovery {

class SnapRes : public RecoveryMechanism {
 public:
  // Captures an initial snapshot immediately and starts the periodic
  // capture chain on the platform's event queue. The chain skips epochs
  // where the hypervisor is frozen (mid-recovery) and ends when it dies.
  SnapRes(hv::Hypervisor& hv, const EnhancementSet& enh,
          sim::Duration period = sim::Milliseconds(100));

  std::string Name() const override { return "SnapRes"; }

  // Captures a fresh snapshot now (outside the periodic chain). Tests use
  // this to pin the rollback target before mutating state.
  void CaptureNow() { Capture(); }

  std::uint64_t captures() const { return captures_; }
  // Modeled cost of one capture (the snapshot_capture phase), charged to
  // CPU 0 as runtime overhead at every capture.
  sim::Duration capture_cost() const;
  sim::Time captured_at() const { return captured_at_; }
  sim::Duration period() const { return period_; }

  // The snapshot is run state: a warm-forked run must not roll back to a
  // snapshot another run captured.
  void SaveForkState(sim::StateImage* img) override {
    img->Put(snapshot_);
    img->Put(captured_at_);
    img->Put(captures_);
  }
  void LoadForkState(sim::StateImage* img) override {
    snapshot_ = img->Get<sim::StateImage>();
    captured_at_ = img->Get<sim::Time>();
    captures_ = img->Get<std::uint64_t>();
  }

 private:
  bool Repair(hw::CpuId cpu, sim::Time detected_at,
              steps::StepRecorder& rec) override;
  void Capture();
  void ScheduleNextCapture();

  sim::Duration period_;
  sim::StateImage snapshot_;
  sim::Time captured_at_ = 0;
  std::uint64_t captures_ = 0;
};

}  // namespace nlh::recovery
