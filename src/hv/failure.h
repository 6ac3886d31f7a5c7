// Typed detection and failure classification, replacing the free-form
// strings previously threaded through error reporting, MarkDead, and the
// campaign failure tally.
//
//  - DetectionKind:  which detector class fired (panic path vs NMI watchdog).
//  - FailureCode:    what the detector saw (attached to a DetectionEvent).
//  - DetectionEvent: the structured error report delivered to the
//                    registered error handler (recovery/manager.h).
//  - FailureReason:  why a detected run did not end in successful recovery
//                    (the Section VII-A taxonomy), used by Hypervisor::
//                    MarkDead, RunResult, and the campaign tally so
//                    breakdowns key on an enum instead of typo-prone text.
#pragma once

#include <string>

#include "hw/cpu.h"
#include "sim/time.h"

namespace nlh::hv {

enum class DetectionKind { kPanic, kHang };

inline const char* DetectionKindName(DetectionKind k) {
  return k == DetectionKind::kPanic ? "panic" : "hang";
}

// What the firing detector observed.
enum class FailureCode {
  kUnknown = 0,
  kAssertFailure,   // panic path: a hypervisor assertion / fatal fault
  kWatchdogStall,   // NMI watchdog: per-CPU soft counter stopped advancing
  kNestedFault,     // error raised while handling a previous error
  kIntegrityDrift,  // epoch monitor: unexplained state-hash drift
                    // (integrity/monitor.h via recovery/rejuvenation.h)
};

inline const char* FailureCodeName(FailureCode c) {
  switch (c) {
    case FailureCode::kUnknown: return "unknown";
    case FailureCode::kAssertFailure: return "assert_failure";
    case FailureCode::kWatchdogStall: return "watchdog_stall";
    case FailureCode::kNestedFault: return "nested_fault";
    case FailureCode::kIntegrityDrift: return "integrity_drift";
  }
  return "?";
}

// Structured error report: replaces the (CpuId, DetectionKind,
// const std::string&) triple previously passed to the error handler.
struct DetectionEvent {
  hw::CpuId cpu = 0;
  DetectionKind kind = DetectionKind::kPanic;
  FailureCode code = FailureCode::kUnknown;
  sim::Time when = 0;   // simulated detection time
  std::string detail;   // human-readable diagnostic (assert text, ...)
};

// Why a detected run did not count as a successful recovery
// (Section VII-A failure-reason breakdown + run-level classification).
enum class FailureReason {
  kNone = 0,                // recovered successfully / not applicable
  kRecoveryPathCorrupted,   // reason 1: recovery routine could not run
  kNoMechanism,             // no recovery mechanism configured
  kAttemptLimitReached,     // repeated recoveries exhausted the budget
  kNestedError,             // fault hit during error handling itself
  kUnhandledError,          // no error handler installed
  kSystemDead,              // platform dead for any other reason
  kPrivVmFailed,            // the PrivVM (Dom0) failed
  kVm3Failed,               // post-recovery VM creation / BlkBench failed
  kVm3NotAttempted,         // system never got to the VM3 check
  kTooManyVmsAffected,      // more AppVMs affected than the criterion allows
};

inline const char* FailureReasonName(FailureReason r) {
  switch (r) {
    case FailureReason::kNone: return "none";
    case FailureReason::kRecoveryPathCorrupted: return "recovery_path_corrupted";
    case FailureReason::kNoMechanism: return "no_mechanism";
    case FailureReason::kAttemptLimitReached: return "attempt_limit_reached";
    case FailureReason::kNestedError: return "nested_error";
    case FailureReason::kUnhandledError: return "unhandled_error";
    case FailureReason::kSystemDead: return "system_dead";
    case FailureReason::kPrivVmFailed: return "privvm_failed";
    case FailureReason::kVm3Failed: return "vm3_failed";
    case FailureReason::kVm3NotAttempted: return "vm3_not_attempted";
    case FailureReason::kTooManyVmsAffected: return "too_many_vms_affected";
  }
  return "?";
}

// Inverse of FailureReasonName (kNone for unrecognized input); used when
// campaign artifacts are read back / round-tripped in tests.
inline FailureReason FailureReasonFromName(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(FailureReason::kTooManyVmsAffected);
       ++i) {
    const FailureReason r = static_cast<FailureReason>(i);
    if (name == FailureReasonName(r)) return r;
  }
  return FailureReason::kNone;
}

}  // namespace nlh::hv
