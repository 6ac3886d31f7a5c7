// Proactive rejuvenation policy: turn integrity drift into recovery BEFORE
// the corruption manifests.
//
// The panic path and the NMI watchdog only see corruption once it
// *manifests* — a handler walks into the damaged structure and faults,
// often hundreds of milliseconds after the stray write landed. The epoch
// monitor (integrity/monitor.h) sees the damage at the first epoch boundary
// after it lands. After `threshold` unexplained drift events the policy
// reports the drift through Hypervisor::ReportError, in the DetectionEvent
// vocabulary the other detectors speak (kind = panic, code =
// kIntegrityDrift), which runs the *configured* recovery mechanism — a
// microreset under NiLiHype — at an epoch boundary, while the damage is
// still latent and no guest request is wedged inside the hypervisor. Same
// mechanism, strictly better starting conditions.
//
// The policy never fires while a recovery is already in flight or the
// platform is dead, and the recovery manager's attempt cap still applies —
// drifting forever does not rejuvenate forever.
#pragma once

#include <cstdint>
#include <string>

#include "hv/hypervisor.h"
#include "integrity/monitor.h"
#include "integrity/surface.h"

namespace nlh::recovery {

class RejuvenationPolicy {
 public:
  // threshold: distinct drift events required before triggering (>= 1).
  RejuvenationPolicy(hv::Hypervisor& hv, int threshold)
      : hv_(hv), threshold_(threshold < 1 ? 1 : threshold) {}

  // Feed from EpochMonitor::SetOnDrift.
  void OnDrift(const integrity::DriftEvent& drift) {
    ++drifts_seen_;
    if (hv_.dead() || hv_.frozen()) return;
    if (drifts_seen_ < triggered_floor_ + threshold_) return;
    // Consume the window: the next trigger needs `threshold` fresh drifts.
    triggered_floor_ = drifts_seen_;
    ++triggers_;
    hv::DetectionEvent ev;
    ev.cpu = 0;
    // Drift is a known-bad state observation, not a stall: the panic-path
    // recovery flow applies (ternaries across the stack treat non-panic
    // as hang, which would misroute this).
    ev.kind = hv::DetectionKind::kPanic;
    ev.code = hv::FailureCode::kIntegrityDrift;
    ev.when = drift.at;
    ev.detail = "unexplained integrity drift on " +
                std::string(integrity::SubsystemName(drift.surface)) +
                " at epoch " + std::to_string(drift.epoch);
    hv_.ReportError(std::move(ev));
  }

  int threshold() const { return threshold_; }
  int triggers() const { return triggers_; }

  // Snapshot/restore (sim/state_image.h).
  template <typename V>
  void VisitState(V&& v) {
    v(drifts_seen_);
    v(triggered_floor_);
    v(triggers_);
  }

 private:
  hv::Hypervisor& hv_;
  int threshold_;
  std::uint64_t drifts_seen_ = 0;
  std::uint64_t triggered_floor_ = 0;
  int triggers_ = 0;
};

}  // namespace nlh::recovery
