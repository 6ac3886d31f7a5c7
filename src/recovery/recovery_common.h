// Building blocks shared by the NiLiHype, ReHype and SnapRes mechanisms,
// the RecoveryMechanism base that holds their common Recover frame, and the
// report structure the latency benches (Tables II and III) print.
#pragma once

#include <string>
#include <vector>

#include "hv/hypervisor.h"
#include "recovery/enhancements.h"
#include "recovery/latency_model.h"
#include "sim/state_image.h"

namespace nlh::recovery {

// Stable identity of a recovery step (a Table II / III row). Campaign
// aggregation and the trace exporter key on this enum — never on the
// human-readable step label, which carries run-specific counts.
enum class RecoveryPhase {
  // Shared.
  kFreeze = 0,
  kDiscardThreads,
  kAckInterrupts,
  kResume,
  kRetrySetup,
  kFrameTableScan,
  // NiLiHype roll-forward repairs (Section V-A).
  kClearIrqCount,
  kReleaseLocks,
  kSchedMetadataRepair,
  kReactivateTimers,
  kReprogramApic,
  // ReHype reboot steps (Table II).
  kPreserveStatics,
  kEarlyBoot,
  kCpusOnline,
  kApicSetup,
  kTscCalibrate,
  kRecordOldHeap,
  kReinitFrameDescriptors,
  kRecreateHeap,
  kSmpInit,
  kRelocateModules,
  kMiscOthers,
  // SnapRes snapshot/rollback steps (recovery/snapres.h). Capture is
  // charged as runtime overhead at every snapshot epoch, not at recovery
  // time; rollback and in-flight replay are recovery-time steps.
  kSnapshotCapture,
  kRollback,
  kReplayInFlight,
  // PrivVM component recovery (recovery/privvm_recovery.h): repairs the
  // backend side of the paravirtual I/O path from surviving frontend and
  // grant state, composing with whichever hypervisor mechanism ran first.
  kPrivVmRingRepair,
  kPrivVmBackendRebuild,
  kPrivVmKernelReset,
};

// Stable machine-readable slug (metric names, JSON artifacts, trace spans).
const char* RecoveryPhaseName(RecoveryPhase p);

// One recovery step and its modeled latency (a Table II / III row).
struct StepLatency {
  RecoveryPhase phase = RecoveryPhase::kFreeze;
  std::string name;  // human-readable label, may carry run-specific counts
  sim::Duration latency = 0;
};

struct RecoveryReport {
  sim::Time detected_at = 0;
  sim::Time resumed_at = 0;
  hv::DetectionKind kind = hv::DetectionKind::kPanic;
  std::vector<StepLatency> steps;
  bool gave_up = false;  // the recovery routine itself failed
  hv::FailureReason give_up_code = hv::FailureReason::kNone;
  std::string give_up_reason;

  sim::Duration total() const {
    sim::Duration t = 0;
    for (const StepLatency& s : steps) t += s.latency;
    return t;
  }
};

namespace steps {
class StepRecorder;
}  // namespace steps

// A recovery mechanism is its repair steps inside one shared frame: every
// mechanism reports, traces, gives up on a corrupted recovery path and
// resumes the system the same way (Recover), and differs only in Repair.
class RecoveryMechanism {
 public:
  RecoveryMechanism(hv::Hypervisor& hv, const EnhancementSet& enh)
      : hv_(hv), enh_(enh) {}
  // Recover schedules callbacks that hold `this`.
  RecoveryMechanism(const RecoveryMechanism&) = delete;
  RecoveryMechanism& operator=(const RecoveryMechanism&) = delete;
  virtual ~RecoveryMechanism() = default;

  virtual std::string Name() const = 0;
  // Performs recovery for the detected error described by `event`. Runs
  // synchronously at detection time; schedules the system resume at
  // detection + total latency. Returns the report.
  RecoveryReport Recover(const hv::DetectionEvent& event);

  // Mechanism-internal mutable state, for whole-system fork images (the
  // warm-fork campaign runner): a mechanism that carries state across the
  // run (SnapRes' snapshot) must save/load it here or a forked run would
  // see another run's leftovers. Default: stateless, nothing to do.
  virtual void SaveForkState(sim::StateImage* img) { (void)img; }
  virtual void LoadForkState(sim::StateImage* img) { (void)img; }

  // Convenience for callers (tests, benches) that only know cpu + kind.
  RecoveryReport Recover(hw::CpuId cpu, hv::DetectionKind kind) {
    hv::DetectionEvent ev;
    ev.cpu = cpu;
    ev.kind = kind;
    ev.code = kind == hv::DetectionKind::kPanic
                  ? hv::FailureCode::kAssertFailure
                  : hv::FailureCode::kWatchdogStall;
    return Recover(ev);
  }

 protected:
  // The mechanism's own steps, from the freeze up to the resume, each
  // recorded through `rec`. Runs only when the recovery path is intact.
  // Returns whether the resume reprograms the APIC timers.
  virtual bool Repair(hw::CpuId cpu, sim::Time detected_at,
                      steps::StepRecorder& rec) = 0;

  hv::Hypervisor& hv_;
  EnhancementSet enh_;
};

namespace steps {

// Per-vCPU outcome of the retry-setup pass.
struct RetrySetupStats {
  int hypercalls_retried = 0;
  int syscalls_retried = 0;
  int requests_lost = 0;
  int undo_records_replayed = 0;
};

// Capture which vCPUs were running when the error was detected (read before
// any repair mutates percpu.curr).
std::vector<hv::VcpuId> RunningVcpus(hv::Hypervisor& hv);

// "Save FS/GS" (Section IV): mark the context of every running vCPU as
// carrying valid FS/GS.
void SaveFsGs(hv::Hypervisor& hv, const std::vector<hv::VcpuId>& running);

// Sets up retry/lost state for every in-flight request (Sections III-B/IV).
RetrySetupStats SetupRequestRetries(hv::Hypervisor& hv,
                                    const EnhancementSet& enh);

// Post-resume notifications: deliver OnHypercallLost / OnFsGsLost to guests
// whose requests could not be retried or whose FS/GS were clobbered, then
// clear the flags. Called from an event scheduled at resume time.
void NotifyGuestsAfterResume(hv::Hypervisor& hv,
                             const std::vector<hv::VcpuId>& was_running);

// Shared step recorder: appends the step to the report, records it as one
// pinned recovery_phase span ([cursor, cursor+latency], inside the
// innermost open span: the recovery root), and advances the cursor.
class StepRecorder {
 public:
  StepRecorder(hv::Hypervisor& hv, RecoveryReport& report, hw::CpuId cpu)
      : hv_(hv), report_(report), cpu_(cpu), cursor_(report.detected_at) {}

  void Add(RecoveryPhase phase, std::string name, sim::Duration latency) {
    forensics::FlightRecorder& recorder = hv_.flight_recorder();
    if (recorder.enabled()) {
      recorder.Record({.at = cursor_,
                       .dur = latency,
                       .kind = forensics::EventKind::kRecoveryPhase,
                       .cpu = cpu_,
                       .detail = RecoveryPhaseName(phase)});
    }
    report_.steps.push_back({phase, std::move(name), latency});
    cursor_ += latency;
  }

  sim::Time cursor() const { return cursor_; }

 private:
  hv::Hypervisor& hv_;
  RecoveryReport& report_;
  hw::CpuId cpu_;
  sim::Time cursor_;
};

}  // namespace steps

}  // namespace nlh::recovery
