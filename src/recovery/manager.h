// RecoveryManager: glues detection to a recovery mechanism and records
// every recovery event for later analysis (latency benches, campaign
// outcome classification).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "detect/hang_detector.h"
#include "recovery/recovery_common.h"

namespace nlh::recovery {

// Recoveries a run may attempt before the system is declared dead. The
// PrivVM component path (core/target_system.cc) uses the same cap.
inline constexpr int kMaxRecoveryAttempts = 3;

class RecoveryManager {
 public:
  RecoveryManager(hv::Hypervisor& hv, std::unique_ptr<RecoveryMechanism> mech,
                  detect::HangDetector* hang_detector)
      : hv_(hv), mech_(std::move(mech)), hang_detector_(hang_detector) {}

  // Installs the manager as the hypervisor's error handler.
  void Install() {
    hv_.SetErrorHandler([this](const hv::DetectionEvent& ev) { OnError(ev); });
  }

  // Observer invoked at the top of OnError, before the mechanism runs. The
  // core layer uses it to schedule during-recovery fault plants (the
  // injector's deferred plants key on the detection time) and to compose
  // component-level recovery after the mechanism's resume point.
  using DetectionObserver = std::function<void(const hv::DetectionEvent&)>;
  void SetOnDetection(DetectionObserver obs) { on_detection_ = std::move(obs); }
  // Invoked after a successful (non-gave-up) mechanism recovery with the
  // completed report; fires at call time, not resume time — observers that
  // need the resume point schedule against report.resumed_at themselves.
  using RecoveredObserver = std::function<void(const RecoveryReport&)>;
  void SetOnRecovered(RecoveredObserver obs) { on_recovered_ = std::move(obs); }
  // Complement of SetOnRecovered, invoked on every failed recovery — no
  // mechanism, attempt limit, or the mechanism gave up. `spent` is the time
  // the attempt consumed before failing (the give-up steps' latency; 0 for
  // the immediate MarkDead paths). Separate observer slot so fleet-level
  // consumers compose with the privvm path's SetOnRecovered untouched.
  using FailedObserver = std::function<void(
      const hv::DetectionEvent&, hv::FailureReason, sim::Duration /*spent*/)>;
  void SetOnRecoveryFailed(FailedObserver obs) { on_failed_ = std::move(obs); }

  void OnError(const hv::DetectionEvent& ev) {
    last_detection_ = ev;
    if (on_detection_) on_detection_(ev);
    if (mech_ == nullptr) {
      hv_.MarkDead(hv::FailureReason::kNoMechanism, ev.detail);
      if (on_failed_) on_failed_(ev, hv::FailureReason::kNoMechanism, 0);
      return;
    }
    if (hv_.stats().recoveries >= kMaxRecoveryAttempts) {
      hv_.MarkDead(hv::FailureReason::kAttemptLimitReached, ev.detail);
      if (on_failed_) on_failed_(ev, hv::FailureReason::kAttemptLimitReached, 0);
      return;
    }
    RecoveryReport report = mech_->Recover(ev);
    if (!report.gave_up && hang_detector_ != nullptr) {
      // Reset the watchdog history when the system resumes so the frozen
      // interval is not mistaken for a hang.
      hv_.platform().queue().ScheduleAt(
          report.resumed_at, [this] { hang_detector_->ResetAll(); });
    }
    if (!report.gave_up && on_recovered_) on_recovered_(report);
    if (report.gave_up && on_failed_) {
      on_failed_(ev, report.give_up_code, report.total());
    }
    reports_.push_back(std::move(report));
  }

  const std::vector<RecoveryReport>& reports() const { return reports_; }
  const hv::DetectionEvent& last_detection() const { return last_detection_; }
  RecoveryMechanism* mechanism() { return mech_.get(); }

  // Snapshot/restore (sim/state_image.h): a rewind discards reports of
  // recoveries that have not happened on the restored timeline.
  template <typename V>
  void VisitState(V&& v) {
    v(reports_);
    v(last_detection_);
  }

 private:
  hv::Hypervisor& hv_;
  std::unique_ptr<RecoveryMechanism> mech_;
  detect::HangDetector* hang_detector_;
  DetectionObserver on_detection_;
  RecoveredObserver on_recovered_;
  FailedObserver on_failed_;
  std::vector<RecoveryReport> reports_;
  hv::DetectionEvent last_detection_;
};

}  // namespace nlh::recovery
