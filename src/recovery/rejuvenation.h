// Proactive rejuvenation policy: turn integrity drift into recovery BEFORE
// the corruption manifests.
//
// The reactive story is: corruption lands -> some handler eventually walks
// into it -> panic/hang -> recovery. The proactive story cuts the middle
// out: after `threshold` unexplained drift events (detect/drift_detector.h)
// the policy reports the drift through Hypervisor::ReportError, which runs
// the *configured* recovery mechanism — a microreset under NiLiHype — at an
// epoch boundary, while the damage is still latent and no guest request is
// wedged inside the hypervisor. Same mechanism, strictly better starting
// conditions.
//
// The policy never fires while a recovery is already in flight or the
// platform is dead, and the recovery manager's attempt cap still applies —
// drifting forever does not rejuvenate forever.
#pragma once

#include <cstdint>

#include "hv/hypervisor.h"

namespace nlh::recovery {

class RejuvenationPolicy {
 public:
  // threshold: distinct drift events required before triggering (>= 1).
  RejuvenationPolicy(hv::Hypervisor& hv, int threshold)
      : hv_(hv), threshold_(threshold < 1 ? 1 : threshold) {}

  // Feed from DriftDetector::SetOnDetection.
  void OnDetection(const hv::DetectionEvent& ev) {
    ++drifts_seen_;
    if (hv_.dead() || hv_.frozen()) return;
    if (drifts_seen_ < triggered_floor_ + threshold_) return;
    // Consume the window: the next trigger needs `threshold` fresh drifts.
    triggered_floor_ = drifts_seen_;
    ++triggers_;
    hv_.ReportError(ev);
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
