// PrivVM failure detector.
//
// The hypervisor detectors (panic path, NMI watchdog) see hypervisor
// failures; a dead or wedged PrivVM is invisible to them — the backend
// simply stops serving and every frontend starves. This detector is the
// component-level equivalent of the watchdog: a recurring poll samples the
// PrivVM's served-I/O counter and its crash/corruption flags.
//
//   crash:  the PrivVM kernel crashed or its state was marked corrupted —
//           reported on the first poll that sees it.
//   hang:   the served-I/O counter stops advancing for
//           kPrivVmMissesToHang consecutive polls while there is
//           demonstrably pending backend work (queued ring requests or an
//           in-flight pipeline op). The
//           pending-work requirement keeps an idle backend from looking
//           stalled.
//
// Failures are delivered through a callback rather than
// Hypervisor::ReportError: a PrivVM-only failure must trigger the PrivVM
// recovery path, not the hypervisor mechanism (the core layer composes the
// two for correlated failures). Polls are skipped while the hypervisor is
// frozen mid-recovery — the stall history also resets, so the frozen
// interval never counts toward a hang.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "guest/privvm.h"
#include "hv/hypervisor.h"

namespace nlh::detect {

// Spacing of the recurring poll.
inline constexpr sim::Duration kPrivVmPollPeriod = sim::Milliseconds(50);
// Consecutive stalled polls (with pending work) that declare a hang.
inline constexpr int kPrivVmMissesToHang = 3;

class PrivVmDetector {
 public:
  PrivVmDetector(hv::Hypervisor& hv, guest::PrivVmKernel& privvm)
      : hv_(hv), privvm_(privvm) {}

  using FailureHandler = std::function<void(const hv::DetectionEvent&)>;
  void SetOnFailure(FailureHandler handler) {
    on_failure_ = std::move(handler);
  }

  // Schedules the recurring poll. Idempotent per detector instance; the
  // pending poll event lives in the simulation queue, so it survives
  // whole-system fork restores along with everything else.
  void Start() {
    if (started_) return;
    started_ = true;
    SchedulePoll();
  }

  void Poll() {
    if (hv_.dead()) return;
    SchedulePoll();
    if (hv_.frozen()) {
      // Mid-recovery: the whole world is stopped, not just the PrivVM.
      stall_polls_ = 0;
      last_ios_ = privvm_.ios_served();
      return;
    }
    if (privvm_.crashed() || privvm_.kernel_state_corrupted()) {
      stall_polls_ = 0;
      Fire(hv::DetectionKind::kPanic,
           privvm_.crashed() ? "privvm kernel crashed: " + privvm_.crash_reason()
                             : "privvm kernel state corrupted");
      return;
    }
    const std::uint64_t ios = privvm_.ios_served();
    if (ios != last_ios_ || !HasPendingWork()) {
      last_ios_ = ios;
      stall_polls_ = 0;
      return;
    }
    if (++stall_polls_ < kPrivVmMissesToHang) return;
    stall_polls_ = 0;
    Fire(hv::DetectionKind::kHang,
         "privvm backend stalled with pending ring work");
  }

  std::uint64_t detections() const { return detections_; }

  // Snapshot/restore (sim/state_image.h). `started_` is wiring, not run
  // state: the recurring poll event itself is captured with the event
  // queue.
  template <typename V>
  void VisitState(V&& v) {
    v(last_ios_);
    v(stall_polls_);
    v(detections_);
  }

 private:
  void SchedulePoll() {
    hv_.platform().queue().ScheduleAfter(kPrivVmPollPeriod,
                                         [this] { Poll(); });
  }

  bool HasPendingWork() const {
    if (privvm_.blk_op().active) return true;
    for (const guest::PrivVmKernel::BlkConn& conn : privvm_.blk_conns()) {
      if (conn.ring != nullptr && !conn.ring->requests.empty()) return true;
    }
    return false;
  }

  void Fire(hv::DetectionKind kind, std::string detail) {
    ++detections_;
    hv::DetectionEvent ev;
    ev.cpu = 0;
    ev.kind = kind;
    ev.code = kind == hv::DetectionKind::kHang
                  ? hv::FailureCode::kWatchdogStall
                  : hv::FailureCode::kAssertFailure;
    ev.when = hv_.Now();
    ev.detail = std::move(detail);
    if (on_failure_) on_failure_(ev);
  }

  hv::Hypervisor& hv_;
  guest::PrivVmKernel& privvm_;
  FailureHandler on_failure_;
  bool started_ = false;
  std::uint64_t last_ios_ = 0;
  int stall_polls_ = 0;
  std::uint64_t detections_ = 0;
};

}  // namespace nlh::detect
